(** Stack objects a checker runtime serves from an allocator instead of
    the VM stack — Low-Fat's mirrored allocas (stack protection) and the
    temporal checker's keyed ones — and releases when their frame exits.

    [install st ~alloc ~release] chains [st]'s frame hooks over the ones
    already in place and returns the alloca implementation: it allocates
    with [alloc] and files the object under the innermost frame; exiting
    the frame passes each of its objects, latest first, to [release]. *)
let install (st : State.t) ~alloc ~release =
  let frames = ref [] in
  let saved_enter = st.frame_enter_hook
  and saved_exit = st.frame_exit_hook in
  st.frame_enter_hook <-
    (fun st ->
      saved_enter st;
      frames := [] :: !frames);
  st.frame_exit_hook <-
    (fun st ->
      (match !frames with
      | f :: rest ->
          List.iter (fun a -> release st a) f;
          frames := rest
      | [] -> ());
      saved_exit st);
  fun st sz ->
    let a = alloc st sz in
    (match !frames with
    | f :: rest -> frames := (a :: f) :: rest
    | [] -> frames := [ [ a ] ]);
    a
