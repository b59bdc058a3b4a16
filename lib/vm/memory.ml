(** Sparse paged byte memory with little-endian accessors.

    Pages are materialized zero-filled on first touch.  The only hard
    fault is touching the null guard page (or a negative address): real
    out-of-bounds accesses into padding or neighbouring allocations behave
    exactly like on hardware — they silently read or corrupt memory.
    Ground truth about memory-safety violations comes from the
    instrumentation, not from the VM. *)

exception Fault of int * string
(** address, description *)

(* Direct-mapped page cache in front of [pages]: slot [i land cache_mask]
   holds the most recently touched page whose index [i] maps there.  A
   slot is filled only from a page that already exists in [pages], so
   first-touch zeroing, [page_count] and the page-limit fault are exactly
   those of the table alone; pages are never removed, so a filled slot
   never goes stale. *)
let cache_slots = 256
let cache_mask = cache_slots - 1

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable page_count : int;
  max_pages : int;
  cache_idx : int array;  (** page index held by each slot; -1 when empty *)
  cache_page : Bytes.t array;
}

let create ?(max_pages = 1 lsl 19) () =
  {
    pages = Hashtbl.create 1024;
    page_count = 0;
    max_pages;
    cache_idx = Array.make cache_slots (-1);
    cache_page = Array.make cache_slots Bytes.empty;
  }

let page_count t = t.page_count

let page_miss t addr idx slot =
  let p =
    match Hashtbl.find_opt t.pages idx with
    | Some p -> p
    | None ->
        if t.page_count >= t.max_pages then
          raise (Fault (addr, "out of VM memory (page limit)"));
        let p = Bytes.make Layout.page_size '\000' in
        Hashtbl.add t.pages idx p;
        t.page_count <- t.page_count + 1;
        p
  in
  Array.unsafe_set t.cache_idx slot idx;
  Array.unsafe_set t.cache_page slot p;
  p

(* [idx] is non-negative (addresses below the null guard fault before
   any page lookup), so it never matches an empty slot's -1 *)
let[@inline] page_of t addr =
  let idx = addr lsr Layout.page_bits in
  let slot = idx land cache_mask in
  if Array.unsafe_get t.cache_idx slot = idx then
    Array.unsafe_get t.cache_page slot
  else page_miss t addr idx slot

let check_addr t addr width =
  ignore t;
  if addr < Layout.null_guard then
    raise (Fault (addr, "access to null guard page"));
  if width < 0 then raise (Fault (addr, "negative access width"))

let offset addr = addr land (Layout.page_size - 1)

(* Fast path: access contained in one page. *)
let fits_page addr width = offset addr + width <= Layout.page_size

let load8 t addr =
  check_addr t addr 1;
  Char.code (Bytes.get (page_of t addr) (offset addr))

let store8 t addr v =
  check_addr t addr 1;
  Bytes.set (page_of t addr) (offset addr) (Char.chr (v land 0xff))

let load t addr width =
  check_addr t addr width;
  if fits_page addr width then begin
    let p = page_of t addr in
    let off = offset addr in
    match width with
    | 1 -> Char.code (Bytes.get p off)
    | 2 -> Bytes.get_uint16_le p off
    | 4 -> Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
    | 8 -> Int64.to_int (Bytes.get_int64_le p off)
    | _ -> raise (Fault (addr, "bad access width"))
  end
  else begin
    (* ascending, as a byte loop touches them: a page-limit fault names
       the first byte it cannot map; byte 7's top bit wraps away as in
       the in-page path *)
    let v = ref 0 in
    for i = 0 to width - 1 do
      v := !v lor (load8 t (addr + i) lsl (8 * i))
    done;
    !v
  end

let store t addr width v =
  check_addr t addr width;
  if fits_page addr width then begin
    let p = page_of t addr in
    let off = offset addr in
    match width with
    | 1 -> Bytes.set p off (Char.chr (v land 0xff))
    | 2 -> Bytes.set_uint16_le p off (v land 0xffff)
    | 4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | 8 -> Bytes.set_int64_le p off (Int64.of_int v)
    | _ -> raise (Fault (addr, "bad access width"))
  end
  else
    for i = 0 to width - 1 do
      (* [asr]: byte 7 carries the sign, as the in-page path's
         [Int64.of_int] writes it *)
      store8 t (addr + i) ((v asr (8 * i)) land 0xff)
    done

(* f64 values keep their full 64-bit pattern: they must not round-trip
   through OCaml's 63-bit int (the sign/exponent bits would be clipped). *)
let load_i64_full t addr =
  check_addr t addr 8;
  if fits_page addr 8 then Bytes.get_int64_le (page_of t addr) (offset addr)
  else begin
    let v = ref 0L in
    for i = 0 to 7 do
      let b = Int64.of_int (load8 t (addr + i)) in
      v := Int64.logor !v (Int64.shift_left b (8 * i))
    done;
    !v
  end

let store_i64_full t addr v =
  check_addr t addr 8;
  if fits_page addr 8 then Bytes.set_int64_le (page_of t addr) (offset addr) v
  else
    for i = 0 to 7 do
      store8 t (addr + i)
        (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
    done

let load_f64 t addr = Int64.float_of_bits (load_i64_full t addr)
let store_f64 t addr f = store_i64_full t addr (Int64.bits_of_float f)

(** Copy [len] bytes from [src] to [dst]; regions may overlap
    ([memmove] semantics).

    Page-chunked: each chunk stays inside one source page and one
    destination page and moves with [Bytes.blit] (overlap-safe within a
    page).  Chunks advance in the same direction the byte-at-a-time
    reference walked — ascending for [dst <= src], descending otherwise —
    and each chunk materializes its source page before its destination
    page, exactly like the byte loop's load-then-store, so page faults
    (the page limit) fire with identical partial state and page counts. *)
let copy t ~dst ~src len =
  if len > 0 then begin
    check_addr t dst len;
    check_addr t src len;
    if dst <= src then begin
      let i = ref 0 in
      while !i < len do
        let s = src + !i and d = dst + !i in
        let n =
          min (len - !i)
            (min (Layout.page_size - offset s) (Layout.page_size - offset d))
        in
        let sp = page_of t s in
        let dp = page_of t d in
        Bytes.blit sp (offset s) dp (offset d) n;
        i := !i + n
      done
    end
    else begin
      let i = ref len in
      while !i > 0 do
        (* chunk covers bytes [i-n, i); bounded by how far the last byte
           sits into its source and destination pages *)
        let slast = src + !i - 1 and dlast = dst + !i - 1 in
        let n = min !i (min (offset slast + 1) (offset dlast + 1)) in
        let s = src + !i - n and d = dst + !i - n in
        (* the byte loop touches [slast] then [dlast] first: a page-limit
           fault names those addresses *)
        let sp = page_of t slast in
        let dp = page_of t dlast in
        Bytes.blit sp (offset s) dp (offset d) n;
        i := !i - n
      done
    end
  end

let fill t ~dst ~byte len =
  if len > 0 then begin
    check_addr t dst len;
    let c = Char.chr (byte land 0xff) in
    let i = ref 0 in
    while !i < len do
      let d = dst + !i in
      let n = min (len - !i) (Layout.page_size - offset d) in
      Bytes.fill (page_of t d) (offset d) n c;
      i := !i + n
    done
  end

(** Read a NUL-terminated string (bounded at 1 MiB to catch runaways). *)
let load_cstring t addr =
  let buf = Buffer.create 16 in
  let rec go a =
    if Buffer.length buf > 1 lsl 20 then
      raise (Fault (addr, "unterminated C string"));
    let c = load8 t a in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (a + 1)
    end
  in
  go addr;
  Buffer.contents buf

(** Write a string followed by a NUL byte. *)
let store_cstring t addr s =
  String.iteri (fun i c -> store8 t (addr + i) (Char.code c)) s;
  store8 t (addr + String.length s) 0

let store_bytes t addr s =
  String.iteri (fun i c -> store8 t (addr + i) (Char.code c)) s
