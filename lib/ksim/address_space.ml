(* A virtual address space: page table + TLB + fault handling over
   physical memory.  Both kernel space and each simulated process's user
   space are instances of this module. *)

type resolution =
  | Retry        (* handler repaired the mapping; re-execute the access *)
  | Emulated     (* handler satisfied the access itself; skip it *)
  | Kill         (* unresolvable: raise Fault.Fault *)

type handler = Fault.t -> resolution

type t = {
  name : string;
  page_size : int;
  mem : Phys_mem.t;
  pt : Page_table.t;
  tlb : Tlb.t;
  clock : Sim_clock.t;
  cost : Cost_model.t;
  stats : Kstats.t;
  st_tlb_hits : Kstats.counter;
  st_tlb_misses : Kstats.counter;
  st_faults : Kstats.counter;
  mutable handlers : handler list;   (* consulted innermost-first *)
  mutable segment : Segment.t;       (* active segment for checked access *)
  mutable faults : int;
}

let create ?(stats = Kstats.create ()) ~name ~mem ~clock ~cost () =
  {
    name;
    page_size = Phys_mem.page_size mem;
    mem;
    pt = Page_table.create ();
    tlb = Tlb.create ();
    clock;
    cost;
    stats;
    st_tlb_hits = Kstats.counter stats (Printf.sprintf "tlb.%s.hits" name);
    st_tlb_misses = Kstats.counter stats (Printf.sprintf "tlb.%s.misses" name);
    st_faults = Kstats.counter stats (Printf.sprintf "fault.%s.count" name);
    handlers = [];
    segment = Segment.flat;
    faults = 0;
  }

let name t = t.name
let page_size t = t.page_size
let page_table t = t.pt
let phys_mem t = t.mem
let tlb t = t.tlb
let fault_count t = t.faults

let vpn_of t addr = addr / t.page_size
let offset_of t addr = addr mod t.page_size

(* Fault-handler stack: Kefence pushes its handler on top of the default
   one, exactly like hooking the page-fault handler in the paper. *)
let push_handler t h = t.handlers <- h :: t.handlers
let pop_handler t =
  match t.handlers with
  | [] -> invalid_arg "Address_space.pop_handler: empty"
  | _ :: rest -> t.handlers <- rest

let set_segment t seg = t.segment <- seg
let segment t = t.segment

(* Map [npages] fresh frames starting at virtual page [vpn]. *)
let map_fresh t ~vpn ~npages ~writable =
  for i = 0 to npages - 1 do
    let frame = Phys_mem.alloc_frame t.mem in
    Page_table.map t.pt ~vpn:(vpn + i) (Pte.normal ~frame ~writable)
  done

let map_guardian t ~vpn = Page_table.map t.pt ~vpn (Pte.guardian ())

let unmap t ~vpn ~npages =
  for i = 0 to npages - 1 do
    (match Page_table.lookup t.pt ~vpn:(vpn + i) with
    | Some { Pte.frame = Some f; _ } -> Phys_mem.free_frame t.mem f
    | Some _ | None -> ());
    Page_table.unmap t.pt ~vpn:(vpn + i);
    Tlb.invalidate t.tlb ~vpn:(vpn + i)
  done

let dispatch_fault t fault =
  t.faults <- t.faults + 1;
  Kstats.incr t.stats t.st_faults;
  Sim_clock.advance t.clock t.cost.Cost_model.page_fault;
  let rec try_handlers = function
    | [] -> Kill
    | h :: rest -> (
        match h fault with
        | Kill -> try_handlers rest
        | (Retry | Emulated) as r -> r)
  in
  match try_handlers t.handlers with
  | Kill -> raise (Fault.Fault fault)
  | r -> r

(* Stands in for the PTE of an access a fault handler emulated: it has
   no frame, so the access reads as zero and drops writes. *)
let emulated = Pte.guardian ()

(* Translate one page-local access; returns the PTE to use.  The lookup
   raises rather than returning an option, so a hit allocates nothing. *)
let rec translate t ~addr ~access ~pc =
  let vpn = vpn_of t addr in
  if Tlb.access t.tlb ~vpn then Kstats.incr t.stats t.st_tlb_hits
  else begin
    Kstats.incr t.stats t.st_tlb_misses;
    Sim_clock.advance t.clock t.cost.Cost_model.tlb_miss
  end;
  match Page_table.find t.pt ~vpn with
  | pte ->
      if Pte.permits pte access then pte
      else
        let reason =
          if pte.Pte.guardian then Fault.Guardian else Fault.Protection
        in
        refault t ~addr ~access ~reason ~pc
  | exception Not_found -> refault t ~addr ~access ~reason:Fault.Not_present ~pc

and refault t ~addr ~access ~reason ~pc =
  match dispatch_fault t { Fault.addr; access; reason; pc } with
  | Retry -> translate t ~addr ~access ~pc
  | Emulated -> emulated
  | Kill -> assert false

(* The per-page step every access takes: one mem_access charge, then
   translation.  Returns the backing frame, or [Bytes.empty] for a
   frameless PTE (an emulated access, or a guardian PTE a handler chose
   to tolerate), which reads as zero and discards writes. *)
let page t ~addr ~access ~pc =
  Sim_clock.advance t.clock t.cost.Cost_model.mem_access;
  match (translate t ~addr ~access ~pc).Pte.frame with
  | Some frame -> Phys_mem.frame t.mem frame
  | None -> Bytes.empty

(* Iterate an access over page-sized chunks, applying [f frame off len
   buf_off] per chunk with a real frame. *)
let chunked t ~addr ~len ~access ~pc f =
  Segment.check t.segment ~addr ~len ~access ~pc;
  if len < 0 then invalid_arg "Address_space: negative length";
  let rec go addr remaining buf_off =
    if remaining > 0 then begin
      let off = offset_of t addr in
      let chunk = min remaining (t.page_size - off) in
      let frame = page t ~addr ~access ~pc in
      if frame != Bytes.empty then f frame off chunk buf_off;
      go (addr + chunk) (remaining - chunk) (buf_off + chunk)
    end
  in
  go addr len 0

let read_bytes ?(pc = "<none>") t ~addr ~len =
  let out = Bytes.make len '\000' in
  chunked t ~addr ~len ~access:Fault.Read ~pc (fun frame off len buf_off ->
      Bytes.blit frame off out buf_off len);
  out

let write_bytes ?(pc = "<none>") t ~addr src =
  chunked t ~addr ~len:(Bytes.length src) ~access:Fault.Write ~pc
    (fun frame off len buf_off -> Bytes.blit src buf_off frame off len)

let read_string ?pc t ~addr ~len =
  Bytes.to_string (read_bytes ?pc t ~addr ~len)

let write_string ?pc t ~addr s = write_bytes ?pc t ~addr (Bytes.of_string s)

(* Scalar accessors: an access that fits in one page takes the same
   segment check and per-page step as [chunked], then reads or writes
   the frame in place, allocating nothing.  A page-straddling word goes
   through [chunked]. *)
let in_page t ~addr ~len ~access ~pc =
  Segment.check t.segment ~addr ~len ~access ~pc;
  page t ~addr ~access ~pc

let read_u8 ?(pc = "<none>") t ~addr =
  let frame = in_page t ~addr ~len:1 ~access:Fault.Read ~pc in
  if frame == Bytes.empty then 0 else Char.code (Bytes.get frame (offset_of t addr))

let write_u8 ?(pc = "<none>") t ~addr v =
  let frame = in_page t ~addr ~len:1 ~access:Fault.Write ~pc in
  if frame != Bytes.empty then
    Bytes.set frame (offset_of t addr) (Char.unsafe_chr (v land 0xff))

(* 63-bit little-endian integers; enough for mini-C word values. *)
let read_int ?(pc = "<none>") t ~addr =
  let off = offset_of t addr in
  if off + 8 > t.page_size then
    Int64.to_int (Bytes.get_int64_le (read_bytes ~pc t ~addr ~len:8) 0)
  else
    let frame = in_page t ~addr ~len:8 ~access:Fault.Read ~pc in
    if frame == Bytes.empty then 0 else Int64.to_int (Bytes.get_int64_le frame off)

let write_int ?(pc = "<none>") t ~addr v =
  let off = offset_of t addr in
  if off + 8 > t.page_size then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    write_bytes ~pc t ~addr b
  end
  else
    let frame = in_page t ~addr ~len:8 ~access:Fault.Write ~pc in
    if frame != Bytes.empty then Bytes.set_int64_le frame off (Int64.of_int v)
