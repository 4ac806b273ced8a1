(** A virtual address space: page table + TLB + fault handling over
    physical memory.  Both kernel space and the simulated user space are
    instances.

    Fault handlers form a stack: Kefence pushes its handler above the
    default one, exactly like hooking the page-fault handler in the
    paper (§3.2).  A handler may repair the mapping and ask for a retry,
    emulate the access away, or decline — an undeclined fault becomes a
    {!Fault.Fault} exception, the simulated machine's oops. *)

(** What a fault handler did about a fault. *)
type resolution =
  | Retry     (** mapping repaired; re-execute the access *)
  | Emulated  (** access satisfied/suppressed by the handler; skip it *)
  | Kill      (** unresolvable here; try the next handler or oops *)

type handler = Fault.t -> resolution

type t

(** [stats] receives per-space TLB hit/miss and fault counters (named
    [tlb.<name>.*] / [fault.<name>.count]), the only record of those
    counts; defaults to a fresh registry. *)
val create :
  ?stats:Kstats.t ->
  name:string ->
  mem:Phys_mem.t ->
  clock:Sim_clock.t ->
  cost:Cost_model.t ->
  unit ->
  t

val name : t -> string
val page_size : t -> int
val page_table : t -> Page_table.t
val phys_mem : t -> Phys_mem.t
val tlb : t -> Tlb.t

val vpn_of : t -> int -> int
val offset_of : t -> int -> int

(** Push a handler on top of the fault-handler stack. *)
val push_handler : t -> handler -> unit

(** Pop the most recently pushed handler.
    @raise Invalid_argument if the stack is empty. *)
val pop_handler : t -> unit

(** Set the active segment; every subsequent access is checked against
    it.  Defaults to {!Segment.flat}. *)
val set_segment : t -> Segment.t -> unit

val segment : t -> Segment.t

(** Map [npages] fresh zero-filled frames starting at [vpn]. *)
val map_fresh : t -> vpn:int -> npages:int -> writable:bool -> unit

(** Map a no-access guardian PTE at [vpn] (Kefence). *)
val map_guardian : t -> vpn:int -> unit

(** Unmap pages, freeing their frames and invalidating TLB entries. *)
val unmap : t -> vpn:int -> npages:int -> unit

(** Checked memory accessors.  Each charges TLB/memory costs, enforces
    the active segment, and runs the fault pipeline.  [pc] is the source
    location reported in fault diagnostics.
    @raise Fault.Fault on unresolved faults. *)

val read_bytes : ?pc:string -> t -> addr:int -> len:int -> Bytes.t
val write_bytes : ?pc:string -> t -> addr:int -> Bytes.t -> unit
val read_string : ?pc:string -> t -> addr:int -> len:int -> string
val write_string : ?pc:string -> t -> addr:int -> string -> unit
val read_u8 : ?pc:string -> t -> addr:int -> int
val write_u8 : ?pc:string -> t -> addr:int -> int -> unit

(** 64-bit little-endian machine words (mini-C [int]s and pointers). *)
val read_int : ?pc:string -> t -> addr:int -> int

val write_int : ?pc:string -> t -> addr:int -> int -> unit
