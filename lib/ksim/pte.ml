(* Page-table entry.  The [guardian] bit is what Kefence relies on: a
   guardian PTE is present in the page table but has both read and write
   permission disabled, so any access traps with reason [Guardian].
   A PTE is immutable: changing a page's mapping means binding a new PTE
   ([Page_table.remap]), which keeps the page table's lookup cache
   coherent. *)

type t = {
  frame : int option; (* None for guardian PTEs: no backing frame *)
  readable : bool;
  writable : bool;
  guardian : bool;
}

let normal ~frame ~writable = { frame = Some frame; readable = true; writable; guardian = false }

let guardian () = { frame = None; readable = false; writable = false; guardian = true }

let permits t (access : Fault.access) =
  match access with
  | Fault.Read -> t.readable
  | Fault.Write -> t.writable
  | Fault.Execute -> t.readable

let pp ppf t =
  Fmt.pf ppf "{frame=%a r=%b w=%b g=%b}"
    Fmt.(option ~none:(any "-") int)
    t.frame t.readable t.writable t.guardian
