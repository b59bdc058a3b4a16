(** VM-level fault injection: installs {!Mi_faultkit.Fault.vm_fault}s
    onto a {!State.t} through the interpreter's poll-hook mechanism, and
    arms wall-clock deadlines the same way.

    Hooks fire from {!Interp}'s per-step tick, so faults land at exact
    dynamic step counts — deterministic and reproducible.  Each injected
    fault increments the ["fault.injected"] counter. *)

open Mi_faultkit

let fired st = State.bump st "fault.injected"

(* A one-shot hook: re-arms itself while its step has not come up, runs
   [fire] exactly once when it has. *)
let one_shot st ~at_step fire =
  let pending = ref true in
  State.add_poll st ~at_step (fun st ->
      if !pending then
        if st.State.steps >= at_step then begin
          pending := false;
          fire st
        end
        else State.poll_at st at_step)

let install_one st = function
  | Fault.Fuel_cap n ->
      fired st;
      State.cap_fuel st n
  | Fault.Wild_write { at_step; addr; value } ->
      one_shot st ~at_step (fun st ->
          fired st;
          (* a wild write may well target an unmapped address; the fault
             is "memory silently changed", not a VM fault *)
          try Memory.store st.State.mem addr 8 value
          with Memory.Fault _ -> ())
  | Fault.Trap_at at_step ->
      one_shot st ~at_step (fun st ->
          fired st;
          raise (State.Trap (Printf.sprintf "injected trap at step %d" at_step)))

(** Install every VM fault of [plan] on [st]. *)
let install plan st = List.iter (install_one st) plan.Fault.vm

(** Arm a deadline on the monotonic timeline: once
    [Mi_support.Mclock.now () > deadline], the next poll raises
    {!Fault.Job_timeout}[ budget].  [deadline] must come from
    {!Mi_support.Mclock.deadline} — comparing against the raw wall
    clock made a stepped clock fire spurious timeouts (forward jump) or
    arbitrarily late ones (backward jump).  The clock is sampled every
    [interval] steps (default 4096) to keep the hot path cheap.  The
    exception carries the budget, not the measured time, so failure
    messages stay deterministic. *)
let arm_deadline ?(interval = 4096) st ~deadline ~budget =
  let hook (st : State.t) =
    if Mi_support.Mclock.expired deadline then raise (Fault.Job_timeout budget)
    else State.poll_at st (st.State.steps + interval)
  in
  State.add_poll st ~at_step:interval hook
