(* A small direct-mapped TLB.  Kefence's page-per-allocation policy
   increases TLB contention (the paper cites it as one of the two causes
   of its 1.4% overhead); modelling the TLB lets E5 reproduce that. *)

type t = { slots : int array (* slot i holds a vpn, or -1 *) }

let create ?(slots = 64) () =
  if slots <= 0 || slots land (slots - 1) <> 0 then invalid_arg "Tlb.create: slots";
  { slots = Array.make slots (-1) }

(* [slots] is a power of two, so this is [vpn mod slots] for the
   non-negative vpns translation produces. *)
let slot_of t vpn = vpn land (Array.length t.slots - 1)

(* Returns [true] on hit.  On miss, installs the translation.  The
   caller counts: Address_space keeps [tlb.<space>.hits/misses]. *)
let access t ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then true
  else begin
    t.slots.(s) <- vpn;
    false
  end

let invalidate t ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then t.slots.(s) <- -1

let flush t = Array.fill t.slots 0 (Array.length t.slots) (-1)
