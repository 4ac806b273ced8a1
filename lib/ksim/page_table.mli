(** A single-level page table mapping virtual page numbers to PTEs.

    A small direct-mapped cache in front of the table makes a repeat
    {!find} of a recently used page one int compare.  The mutators below
    are the only way to change a binding and each keeps the cache
    coherent; PTEs are immutable. *)

type t

val create : unit -> t

(** @raise Invalid_argument if [vpn] is already mapped. *)
val map : t -> vpn:int -> Pte.t -> unit

(** Bind [vpn] to a PTE, replacing any existing binding. *)
val remap : t -> vpn:int -> Pte.t -> unit

(** @raise Invalid_argument if [vpn] is not mapped. *)
val unmap : t -> vpn:int -> unit

val lookup : t -> vpn:int -> Pte.t option

(** [lookup] for hot paths: raises [Not_found] instead of allocating an
    option. *)
val find : t -> vpn:int -> Pte.t

(** Number of mapped pages. *)
val mapped : t -> int

val iter : (vpn:int -> Pte.t -> unit) -> t -> unit
