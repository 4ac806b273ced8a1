(* Lock-free single-producer/single-consumer ring buffer (§3.3):
   "user-space event monitors receive events through a character device
   interface to a lock-free ring buffer.  Because the ring buffer is
   lock-free, we can instrument code that is invoked during interrupt
   handlers without fear that the interrupt handler will block."

   The implementation is a genuine lock-free SPSC queue over OCaml 5
   atomics: the producer only writes [tail], the consumer only writes
   [head], and each reads the other's index with acquire semantics via
   Atomic.get.  It is safe to run producer and consumer on different
   domains (the property tests do). *)

type 'a t = {
  slots : 'a option array;
  capacity : int;
  head : int Atomic.t;          (* next slot to consume *)
  tail : int Atomic.t;          (* next slot to fill *)
  dropped : int Atomic.t;       (* producer-side overflow count *)
  st_dropped : Kstats.counter option;
}

let create ?name ?stats capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity";
  (* a named ring surfaces its drops as kmonitor.ring.<name>.dropped, so
     a registry dump attributes overflow to the ring that overflowed
     rather than one anonymous global total *)
  let st_dropped =
    match (name, stats) with
    | Some n, Some s ->
        Some (Kstats.counter s (Printf.sprintf "kmonitor.ring.%s.dropped" n))
    | _ -> None
  in
  {
    slots = Array.make capacity None;
    capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    dropped = Atomic.make 0;
    st_dropped;
  }

let capacity t = t.capacity

let length t =
  let tl = Atomic.get t.tail and hd = Atomic.get t.head in
  tl - hd

let is_empty t = length t = 0
let is_full t = length t >= t.capacity

(* Producer side.  On overflow the event is dropped (an interrupt
   handler can never block), and the drop is counted. *)
let push t v =
  let tl = Atomic.get t.tail in
  let hd = Atomic.get t.head in
  if tl - hd >= t.capacity then begin
    Atomic.incr t.dropped;
    (match t.st_dropped with
    | Some c -> Kstats.incr c
    | None -> ());
    false
  end
  else begin
    t.slots.(tl mod t.capacity) <- Some v;
    Atomic.set t.tail (tl + 1);
    true
  end

(* Consumer side. *)
let pop t =
  let hd = Atomic.get t.head in
  let tl = Atomic.get t.tail in
  if tl = hd then None
  else begin
    let v = t.slots.(hd mod t.capacity) in
    t.slots.(hd mod t.capacity) <- None;
    Atomic.set t.head (hd + 1);
    v
  end

(* Bulk consume up to [max] entries — the libkernevents "copy log entries
   in bulk" path. *)
let pop_batch t ~max =
  let rec go acc n =
    if n >= max then List.rev acc
    else
      match pop t with
      | None -> List.rev acc
      | Some v -> go (v :: acc) (n + 1)
  in
  go [] 0

let dropped t = Atomic.get t.dropped
