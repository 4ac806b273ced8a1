(* x86-style segmentation: a descriptor with base, limit, and permissions.
   Cosy's strong isolation mode places a user-supplied function (or just
   its data) in a segment of its own; any reference outside the segment
   raises a protection fault, which is exactly the property the paper's
   safety argument relies on. *)

type t = {
  name : string;
  base : int;
  limit : int;                   (* size in bytes; valid range [base, base+limit) *)
  readable : bool;
  writable : bool;
  executable : bool;
}

let make ~name ~base ~limit ?(readable = true) ?(writable = true)
    ?(executable = false) () =
  if base < 0 || limit < 0 then invalid_arg "Segment.make";
  { name; base; limit; readable; writable; executable }

(* The flat kernel segment: everything is reachable. *)
let flat = make ~name:"kernel-flat" ~base:0 ~limit:max_int ~executable:true ()

(* Written without [addr + len] or [base + limit]: near [max_int] those
   sums wrap negative and would let an access escape the segment. *)
let contains t ~addr ~len =
  len >= 0 && addr >= t.base && addr - t.base <= t.limit - len

let permits t (access : Fault.access) =
  match access with
  | Fault.Read -> t.readable
  | Fault.Write -> t.writable
  | Fault.Execute -> t.executable

let check t ~addr ~len ~access ~pc =
  if not (contains t ~addr ~len && permits t access) then
    Fault.raise_fault ~addr ~access ~reason:Fault.Segment_violation ~pc

let pp ppf t =
  Fmt.pf ppf "%s[0x%x,+0x%x r=%b w=%b x=%b]" t.name t.base t.limit t.readable
    t.writable t.executable
