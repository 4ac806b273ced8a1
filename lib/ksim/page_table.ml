(* A single-level page table mapping virtual page numbers to PTEs. *)

type t = { entries : (int, Pte.t) Hashtbl.t }

let create () = { entries = Hashtbl.create 256 }

let map t ~vpn pte =
  if Hashtbl.mem t.entries vpn then
    invalid_arg (Printf.sprintf "Page_table.map: vpn %d already mapped" vpn);
  Hashtbl.replace t.entries vpn pte

let remap t ~vpn pte = Hashtbl.replace t.entries vpn pte

let unmap t ~vpn =
  if not (Hashtbl.mem t.entries vpn) then
    invalid_arg (Printf.sprintf "Page_table.unmap: vpn %d not mapped" vpn);
  Hashtbl.remove t.entries vpn

let lookup t ~vpn = Hashtbl.find_opt t.entries vpn

(* [lookup] for hot paths: raises [Not_found] instead of allocating an
   option. *)
let find t ~vpn = Hashtbl.find t.entries vpn

let mapped t = Hashtbl.length t.entries
let iter f t = Hashtbl.iter (fun vpn pte -> f ~vpn pte) t.entries
