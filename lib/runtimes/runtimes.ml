(** Checker-runtime installers, keyed by approach name.

    The instrumentation side of a checker registers in
    {!Mi_core.Checker}; this registry holds the execution side — how to
    attach the checker's runtime to a VM state before loading.  The two
    are separate libraries because the core (compiler) layer must not
    depend on the VM; every binary that executes instrumented code links
    this one and resolves the installer through the same approach names
    and aliases as the compile side. *)

module Config = Mi_core.Config

(** Per-global allocation override for {!Mi_vm.Interp.load}: [None]
    places the global in the unprotected data segment. *)
type alloc_global =
  Mi_vm.State.t -> name:string -> size:int -> align:int -> int option

type installer =
  Config.t ->
  modules:(Mi_mir.Irmod.t * bool) list ->
  Mi_vm.State.t ->
  alloc_global option
(** Attach a runtime configured by the given {!Config.t}.  [modules] are
    the (module, instrumented?) pairs about to be loaded — installers
    that place globals need to know which units were instrumented. *)

let installers : (string * installer) list ref = ref []

let register name (f : installer) =
  if List.mem_assoc name !installers then
    invalid_arg (Printf.sprintf "runtime installer %S already registered" name);
  installers := !installers @ [ (name, f) ]

(* resolve aliases ("sb", "cets", ...) to the canonical checker name *)
let canonical name =
  match Mi_core.Checker.find name with
  | Some c -> c.Mi_core.Checker.name
  | None -> name

let find name = List.assoc_opt (canonical name) !installers

(** Install the runtime for [config]'s approach.  Raises
    [Invalid_argument] for an approach without a registered runtime. *)
let install (config : Config.t) ~modules (st : Mi_vm.State.t) :
    alloc_global option =
  match find config.approach with
  | Some f -> f config ~modules st
  | None ->
      invalid_arg
        (Printf.sprintf "no runtime installer for approach %S (known: %s)"
           (Config.approach_name config.approach)
           (String.concat ", " (List.map fst !installers)))

(* --- built-in installers ---------------------------------------------- *)

let () =
  register "softbound" (fun _ ~modules:_ st ->
      ignore (Mi_softbound.Softbound_rt.install st);
      None);
  register "lowfat" (fun cfg ~modules st ->
      let lf =
        Mi_lowfat.Lowfat_rt.install ~stack_protection:cfg.Config.lf_stack st
      in
      if cfg.Config.lf_globals then begin
        (* mirror only globals defined by instrumented units: library
           globals stay in the unprotected segment (§4.3) *)
        let mirrored = Hashtbl.create 32 in
        List.iter
          (fun ((m : Mi_mir.Irmod.t), instrumented) ->
            if instrumented then
              List.iter
                (fun (g : Mi_mir.Irmod.global) ->
                  if not g.gextern then Hashtbl.replace mirrored g.gname ())
                m.globals)
          modules;
        Some
          (fun st ~name ~size ~align ->
            if Hashtbl.mem mirrored name then
              Some (Mi_lowfat.Lowfat_rt.alloc_global lf st ~size ~align)
            else None)
      end
      else None);
  register "temporal" (fun _ ~modules:_ st ->
      ignore (Mi_temporal.Temporal_rt.install st);
      None)
