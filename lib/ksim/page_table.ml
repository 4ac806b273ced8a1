(* A single-level page table mapping virtual page numbers to PTEs.

   A small direct-mapped cache of (vpn, PTE) pairs sits in front of the
   hash table, so a repeat [find] of a recently used page is one int
   compare and no polymorphic hash.  [map], [remap] and [unmap] are the
   only ways to change a binding and each clears its vpn's slot, and a
   PTE cannot change in place, so the cache always agrees with the
   table.  It is host-side only: the simulated TLB ([Tlb]) and every
   cost are unaffected. *)

let cache_slots = 64 (* a power of two *)

type t = {
  entries : (int, Pte.t) Hashtbl.t;
  cached_vpn : int array;  (* slot s holds a vpn, or s + 1 when empty *)
  cached_pte : Pte.t array;
}

(* An empty slot holds [s + 1]: a vpn that never lands in slot [s], so
   no vpn, whatever its sign, can match it. *)
let slot vpn = vpn land (cache_slots - 1)
let empty s = s + 1

let create () =
  {
    entries = Hashtbl.create 256;
    cached_vpn = Array.init cache_slots empty;
    cached_pte = Array.make cache_slots (Pte.guardian ());
  }

let forget t vpn =
  let s = slot vpn in
  if t.cached_vpn.(s) = vpn then t.cached_vpn.(s) <- empty s

let map t ~vpn pte =
  if Hashtbl.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Page_table.map: vpn %d already mapped" vpn);
  forget t vpn;
  Hashtbl.replace t.entries vpn pte

let remap t ~vpn pte =
  forget t vpn;
  Hashtbl.replace t.entries vpn pte

let unmap t ~vpn =
  if not (Hashtbl.mem t.entries vpn) then
    invalid_arg (Printf.sprintf "Page_table.unmap: vpn %d not mapped" vpn);
  forget t vpn;
  Hashtbl.remove t.entries vpn

let lookup t ~vpn = Hashtbl.find_opt t.entries vpn

let find t ~vpn =
  let s = slot vpn in
  if t.cached_vpn.(s) = vpn then t.cached_pte.(s)
  else begin
    let pte = Hashtbl.find t.entries vpn in
    t.cached_vpn.(s) <- vpn;
    t.cached_pte.(s) <- pte;
    pte
  end

let mapped t = Hashtbl.length t.entries
let iter f t = Hashtbl.iter (fun vpn pte -> f ~vpn pte) t.entries
