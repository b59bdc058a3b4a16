(** The benchmark's own span recorder for the traced run.

    Spans are recorded around calls into the system's public functions,
    from the benchmark's code, on the monotonic timeline
    ({!Mi_support.Mclock}).  They are kept in memory and written out once
    at the end.  A span's self time is its duration minus the time its
    direct children cover; children nest strictly inside their parent,
    so that is their summed duration. *)

module Mclock = Mi_support.Mclock
module Json = Mi_obs.Json

type span = {
  id : int;
  name : string;
  layer : string;  (** metric prefix the span's self time counts toward *)
  item : int;  (** the workload item (job or program) the span belongs to *)
  parent : int;  (** [-1] for a root span *)
  start : float;
  mutable stop : float;
  mutable child_time : float;
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable stack : span list;
  mutable item : int;
}

let dummy =
  { id = -1; name = ""; layer = ""; item = -1; parent = -1; start = 0.;
    stop = 0.; child_time = 0. }

let create () = { spans = Array.make 4096 dummy; n = 0; stack = []; item = 0 }

(** Spans opened from now on belong to workload item [i]. *)
let set_item t i = t.item <- i

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

(** [with_ t ~layer name f] runs [f] inside a span. *)
let with_ t ~layer name f =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = t.n; name; layer; item = t.item; parent; start = Mclock.now ();
      stop = 0.; child_time = 0. }
  in
  push t s;
  t.stack <- s :: t.stack;
  let finish () =
    s.stop <- Mclock.now ();
    t.stack <- List.tl t.stack;
    match t.stack with
    | p :: _ -> p.child_time <- p.child_time +. (s.stop -. s.start)
    | [] -> ()
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let self_time s = s.stop -. s.start -. s.child_time

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

(** Summed self time per layer, sorted by layer name. *)
let self_by_layer t : (string * float) list =
  let h = Hashtbl.create 16 in
  iter t (fun s ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt h s.layer) in
      Hashtbl.replace h s.layer (prev +. self_time s));
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

(** Self time of every span named [name], in recording order. *)
let self_times_named t name : float list =
  let acc = ref [] in
  iter t (fun s -> if s.name = name then acc := self_time s :: !acc);
  List.rev !acc

(** Write every span as Chrome trace_event JSON ([ph:"X"], microseconds
    from the first span). *)
let write_chrome t path =
  let t0 = if t.n = 0 then 0. else t.spans.(0).start in
  let us x = Json.Float (Float.round ((x -. t0) *. 1e7) /. 10.) in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Float (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("item", Json.Int s.item);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      iter t (fun s ->
          if s.id > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (ev s)));
      output_string oc "\n]}\n")

(** A way to run a named call: timed in a span, or not at all. *)
type wrap = { run : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { run = (fun _ f -> f ()) }
let in_layer t layer = { run = (fun name f -> with_ t ~layer name f) }
