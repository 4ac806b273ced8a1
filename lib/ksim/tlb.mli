(** A small direct-mapped TLB model.

    Kefence's page-per-allocation policy increases TLB contention — the
    paper names it as one of the two causes of its 1.4% overhead — so the
    address spaces charge a miss cost through this model and count hits
    and misses in their [tlb.<space>.*] kstats (experiment E5 reports
    the miss counts). *)

type t

(** [create ~slots ()] makes a direct-mapped TLB ([slots] defaults to 64).
    @raise Invalid_argument unless [slots] is a power of two. *)
val create : ?slots:int -> unit -> t

(** [access t ~vpn] returns [true] on hit; on miss the translation is
    installed (possibly evicting a conflicting entry). *)
val access : t -> vpn:int -> bool

(** Drop the entry for [vpn] if present (used on unmap). *)
val invalidate : t -> vpn:int -> unit

(** Drop everything (context switch with address-space change). *)
val flush : t -> unit
