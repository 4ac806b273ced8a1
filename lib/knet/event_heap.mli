(** A binary min-heap of events keyed by due cycle.

    Events due the same cycle pop in insertion order: the heap stamps
    each push with an increasing sequence number and orders by
    (due, seq).  Keys live in parallel int arrays, so a push or pop
    allocates nothing beyond an occasional doubling of the arrays, and
    {!top_due} only reads. *)

type 'a t

(** [create ~dummy] is an empty heap.  [dummy] fills vacated event
    slots, so a popped event is not kept alive by the heap. *)
val create : dummy:'a -> 'a t

val is_empty : 'a t -> bool

(** [push h ~due ev] queues [ev] behind every event already queued with
    the same [due]. *)
val push : 'a t -> due:int -> 'a -> unit

(** Due cycle of the next {!pop}; [max_int] when the heap is empty. *)
val top_due : 'a t -> int

(** Remove and return the event with the least (due, seq).
    @raise Invalid_argument when the heap is empty. *)
val pop : 'a t -> 'a
