(** Deterministic fault injection: one {!t} plan describes every fault a
    run should suffer, at every layer of the stack.

    The plan is plain immutable data — building one (or parsing one from
    an [--inject] spec) does nothing by itself.  Each layer consults the
    plan at its own injection point:

    - {!Mi_core.Instrument} deletes or weakens individual inserted
      checks ({!check_mutation}) — mutation testing of the safety
      guarantee;
    - {!Mi_vm.Inject} installs VM-level faults ({!vm_fault}): wild
      writes, fuel starvation, trap storms;
    - the instrumentation cache corrupts its own disk entries
      ({!cache_corruption}) to exercise the detection/quarantine path;
    - the experiment harness injects whole-job faults ({!job_fault}):
      worker crashes and hangs, matched by job key substring.

    Everything is deterministic: the same plan against the same inputs
    produces the same faults, so chaos runs are reproducible and
    parallel results stay byte-identical. *)

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

type check_action =
  | Delete  (** do not emit the check at all *)
  | Weaken  (** emit it with wide bounds — it can never report *)

type check_mutation = {
  cm_action : check_action;
  cm_ordinal : int;
      (** which check: the n-th (0-based) check placed in a function, in
          placement order of the unmutated run (ordinals are assigned
          before the mutation decision, so deleting check 2 does not
          renumber check 3); [-1] is the wildcard — every check in the
          matched function(s), the [del-check=*] spec *)
  cm_func : string option;  (** restrict to one function; [None] = any *)
}

type vm_fault =
  | Wild_write of { at_step : int; addr : int; value : int }
      (** store 8 bytes behind the instrumentation's back once the
          dynamic step counter reaches [at_step] *)
  | Fuel_cap of int  (** starve the fuel budget down to this many steps *)
  | Trap_at of int  (** raise a VM trap at the given step (a storm is
                        several of these) *)

type cache_corruption =
  | Truncate  (** cut every entry file in half *)
  | Bitflip  (** flip one byte in every entry's payload *)
  | Stale  (** move every entry under a digest it does not match *)

type job_fault =
  | Crash_job of string
      (** raise in the worker before the job runs; matched when the
          string occurs in ["<setup_key>/<bench>"] *)
  | Hang_job of string * float
      (** stall this many seconds first, capped at the job's budget *)

type t = {
  checks : check_mutation list;
  vm : vm_fault list;
  cache : cache_corruption option;
  jobs : job_fault list;
}

let none = { checks = []; vm = []; cache = None; jobs = [] }

let is_none p =
  p.checks = [] && p.vm = [] && p.cache = None && p.jobs = []

(* ------------------------------------------------------------------ *)
(* Fault signals                                                       *)
(* ------------------------------------------------------------------ *)

exception Injected_crash of string
(** Raised by the harness worker for a matching {!Crash_job}. *)

exception Job_timeout of float
(** Raised (from a VM poll hook or a hang spin loop) when a job exceeds
    its wall-clock budget; carries the budget in seconds. *)

let () =
  Printexc.register_printer (function
    | Injected_crash what ->
        Some (Printf.sprintf "Injected_crash(%s)" what)
    | Job_timeout budget ->
        Some (Printf.sprintf "Job_timeout(%gs)" budget)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Consultation                                                        *)
(* ------------------------------------------------------------------ *)

let check_mutation_for p ~func ~ordinal =
  List.find_map
    (fun cm ->
      if
        (cm.cm_ordinal = ordinal || cm.cm_ordinal = -1)
        && match cm.cm_func with None -> true | Some f -> f = func
      then Some cm.cm_action
      else None)
    p.checks

let job_fault_for p job_desc =
  let matches sub =
    sub <> ""
    &&
    let n = String.length sub and m = String.length job_desc in
    let rec at i = i + n <= m && (String.sub job_desc i n = sub || at (i + 1)) in
    at 0
  in
  List.find_opt
    (function
      | Crash_job s -> matches s
      | Hang_job (s, _) -> matches s)
    p.jobs

(* ------------------------------------------------------------------ *)
(* Rendering and the [--inject] spec language                          *)
(* ------------------------------------------------------------------ *)

let check_mutation_to_string cm =
  Printf.sprintf "%s=%s%s"
    (match cm.cm_action with Delete -> "del-check" | Weaken -> "weaken-check")
    (if cm.cm_ordinal = -1 then "*" else string_of_int cm.cm_ordinal)
    (match cm.cm_func with None -> "" | Some f -> "@" ^ f)

let corruption_name = function
  | Truncate -> "truncate"
  | Bitflip -> "bitflip"
  | Stale -> "stale"

let to_string p =
  let parts =
    List.map check_mutation_to_string p.checks
    @ List.map
        (function
          | Wild_write { at_step; addr; value } ->
              Printf.sprintf "wild-write=%d:%#x:%d" at_step addr value
          | Fuel_cap n -> Printf.sprintf "fuel=%d" n
          | Trap_at s -> Printf.sprintf "trap-at=%d" s)
        p.vm
    @ (match p.cache with
      | None -> []
      | Some c -> [ "corrupt-cache=" ^ corruption_name c ])
    @ List.map
        (function
          | Crash_job s -> "crash=" ^ s
          | Hang_job (s, d) -> Printf.sprintf "hang=%s:%g" s d)
        p.jobs
  in
  String.concat "," parts

(** The part of the plan that changes what the compile phase produces —
    folded into the instrumentation-cache key so mutated modules never
    alias unmutated ones.  Empty when no check is mutated. *)
let compile_sig p =
  match p.checks with
  | [] -> ""
  | cms -> String.concat "," (List.map check_mutation_to_string cms)

let parse spec : (t, string) result =
  let clauses =
    List.filter
      (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  let int_of s what =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" what s)
  in
  let float_of s what =
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s: expected a number, got %S" what s)
  in
  let check_of action v =
    let ord, func =
      match String.index_opt v '@' with
      | Some i ->
          ( String.sub v 0 i,
            Some (String.sub v (i + 1) (String.length v - i - 1)) )
      | None -> (v, None)
    in
    let ord_res =
      if ord = "*" || ord = "" then Ok (-1) else int_of ord "check ordinal"
    in
    Result.map
      (fun o -> { cm_action = action; cm_ordinal = o; cm_func = func })
      ord_res
  in
  let rec go acc = function
    | [] -> Ok { acc with checks = List.rev acc.checks; vm = List.rev acc.vm;
                 jobs = List.rev acc.jobs }
    | clause :: rest -> (
        match String.index_opt clause '=' with
        | None when clause = "del-check" || clause = "weaken-check" ->
            (* bare form: mutate every check everywhere *)
            let action = if clause = "del-check" then Delete else Weaken in
            let cm = { cm_action = action; cm_ordinal = -1; cm_func = None } in
            go { acc with checks = cm :: acc.checks } rest
        | None -> Error (Printf.sprintf "bad clause %S (expected key=value)" clause)
        | Some i -> (
            let key = String.sub clause 0 i in
            let v = String.sub clause (i + 1) (String.length clause - i - 1) in
            match key with
            | "del-check" ->
                Result.bind (check_of Delete v) (fun cm ->
                    go { acc with checks = cm :: acc.checks } rest)
            | "weaken-check" ->
                Result.bind (check_of Weaken v) (fun cm ->
                    go { acc with checks = cm :: acc.checks } rest)
            | "fuel" ->
                Result.bind (int_of v "fuel") (fun n ->
                    go { acc with vm = Fuel_cap n :: acc.vm } rest)
            | "trap-at" ->
                Result.bind (int_of v "trap-at") (fun s ->
                    go { acc with vm = Trap_at s :: acc.vm } rest)
            | "wild-write" -> (
                match String.split_on_char ':' v with
                | [ s; a; value ] ->
                    Result.bind (int_of s "wild-write step") (fun s ->
                        Result.bind (int_of a "wild-write addr") (fun a ->
                            Result.bind (int_of value "wild-write value")
                              (fun value ->
                                go
                                  { acc with
                                    vm =
                                      Wild_write
                                        { at_step = s; addr = a; value }
                                      :: acc.vm }
                                  rest)))
                | _ -> Error "wild-write: expected STEP:ADDR:VALUE")
            | "corrupt-cache" -> (
                match v with
                | "truncate" -> go { acc with cache = Some Truncate } rest
                | "bitflip" -> go { acc with cache = Some Bitflip } rest
                | "stale" -> go { acc with cache = Some Stale } rest
                | _ ->
                    Error
                      (Printf.sprintf
                         "corrupt-cache: expected truncate|bitflip|stale, got %S"
                         v))
            | "crash" -> go { acc with jobs = Crash_job v :: acc.jobs } rest
            | "hang" -> (
                match String.rindex_opt v ':' with
                | None -> Error "hang: expected SUBSTR:SECONDS"
                | Some i ->
                    let sub = String.sub v 0 i in
                    let secs = String.sub v (i + 1) (String.length v - i - 1) in
                    Result.bind (float_of secs "hang seconds") (fun d ->
                        go { acc with jobs = Hang_job (sub, d) :: acc.jobs }
                          rest))
            | _ -> Error (Printf.sprintf "unknown fault key %S" key)))
  in
  go none clauses
