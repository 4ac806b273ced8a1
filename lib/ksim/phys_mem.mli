(** Physical memory: a growable pool of fixed-size frames.

    Frames are allocated and freed by number; freed frames are recycled.
    Both the kernel and user address spaces draw from one pool, as on
    real hardware. *)

type t

(** [create ~page_size] makes an empty pool of [page_size]-byte frames.
    A power-of-two page size lets address translation split an address
    with a shift and a mask.
    @raise Invalid_argument unless [page_size] is a power of two. *)
val create : page_size:int -> t

val page_size : t -> int

(** Number of currently allocated frames. *)
val live_frames : t -> int

(** Peak of {!live_frames} over the pool's lifetime. *)
val high_water : t -> int

(** Allocate a zero-filled frame; returns its frame number. *)
val alloc_frame : t -> int

(** Release a frame.  @raise Invalid_argument on double free. *)
val free_frame : t -> int -> unit

(** Direct access to a frame's backing bytes.
    @raise Invalid_argument if the frame is not allocated. *)
val frame : t -> int -> Bytes.t

(** [read t ~frame ~off ~len] copies bytes out of a frame.
    @raise Invalid_argument if the range leaves the frame. *)
val read : t -> frame:int -> off:int -> len:int -> Bytes.t

(** [write t ~frame ~off src] copies [src] into a frame.
    @raise Invalid_argument if the range leaves the frame. *)
val write : t -> frame:int -> off:int -> Bytes.t -> unit
