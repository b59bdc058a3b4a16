(** The shadow stack of a disjoint-metadata runtime: one frame per
    instrumented call, [width] words per slot.  Slot 0 of a frame is the
    return slot and slots 1.. carry the pointer arguments, so a witness
    crosses a call beside, not inside, the program's own stack.
    SoftBound keeps (base, bound) pairs (width 2), the temporal checker
    one key (width 1).

    With [zero_frames], entering a frame zeroes it: a slot no caller
    wrote reads 0 (the temporal checker's untracked key).  Without it, a
    fresh frame reads whatever an earlier, deeper frame left in that
    slot — SoftBound's §4.3 stale-slot hazard, modeled on purpose.

    The stack starts at 64 words and grows on demand, so a run pays in
    memory only for the depth and the slots it uses.  The cost model
    charges per operation ([ss_frame] to enter or leave, [ss_op] per slot
    read or write), whatever the capacity. *)

type t = {
  st : State.t;
  width : int;  (** words per slot *)
  zero_frames : bool;
  n_frames : Mi_obs.Metrics.handle;  (** the [<ns>.ss_frames] counter *)
  mutable words : int array;
  mutable top : int;  (** next free slot *)
  mutable fp : int;  (** the current frame's slot 0 *)
  mutable saved : int list;  (** the callers' frame pointers *)
}

let initial_words = 64

(** A shadow stack charging [st]'s cost model and counting frames as
    [ns ^ ".ss_frames"]. *)
let create st ~width ~ns ~zero_frames =
  {
    st;
    width;
    zero_frames;
    n_frames = State.handle st (ns ^ ".ss_frames");
    words = Array.make initial_words 0;
    top = 0;
    fp = 0;
    saved = [];
  }

(* Grow to hold [n] slots: at least double, and at least what the access
   needs, however far past the current capacity it lies. *)
let ensure t n =
  let need = n * t.width in
  let len = Array.length t.words in
  if need > len then begin
    let bigger = Array.make (max (len * 2) need) 0 in
    Array.blit t.words 0 bigger 0 len;
    t.words <- bigger
  end

(** Open a frame with [nslots] argument slots after the return slot. *)
let enter t nslots =
  State.charge t.st t.st.State.cost.Cost.ss_frame;
  Mi_obs.Metrics.bump t.n_frames;
  t.saved <- t.fp :: t.saved;
  t.fp <- t.top;
  t.top <- t.top + nslots + 1;
  ensure t t.top;
  if t.zero_frames then
    Array.fill t.words (t.fp * t.width) ((t.top - t.fp) * t.width) 0

let leave t =
  State.charge t.st t.st.State.cost.Cost.ss_frame;
  t.top <- t.fp;
  match t.saved with
  | fp :: rest ->
      t.fp <- fp;
      t.saved <- rest
  | [] -> t.fp <- 0

(** Word [k] of the current frame's [slot]. *)
let get t slot k =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ensure t (t.fp + slot + 1);
  t.words.(((t.fp + slot) * t.width) + k)

let set t slot k v =
  State.charge t.st t.st.State.cost.Cost.ss_op;
  ensure t (t.fp + slot + 1);
  t.words.(((t.fp + slot) * t.width) + k) <- v
