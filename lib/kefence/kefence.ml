(* Kefence (§3.2): hardware-assisted detection of kernel buffer overflows.

   Allocations are page-aligned vmalloc areas with an adjacent *guardian
   PTE* whose read and write permissions are disabled; the buffer is
   placed flush against the guardian so the first out-of-bounds byte
   faults.  The page-fault handler is extended: when the faulting address
   falls on a guardian PTE it reports a buffer overflow with the faulting
   source location, then reacts according to the configured mode:

   - [Crash]: the module is terminated (the fault propagates), preventing
     further malicious operations — the security-critical configuration;
   - [Log_only]: the access is suppressed and execution continues;
   - [Auto_map_ro]: a page is auto-mapped read-only, so out-of-bounds
     reads proceed (for debugging) but writes still kill the module;
   - [Auto_map_rw]: a writable page is auto-mapped and the overflowing
     code runs to completion while everything is logged.

   A hash table maps buffer addresses to areas so vfree stays O(1)
   (the paper's "hash table to store the information about virtual
   memory buffers"). *)

type mode = Crash | Log_only | Auto_map_ro | Auto_map_rw

let pp_mode ppf m =
  Fmt.string ppf
    (match m with
    | Crash -> "crash"
    | Log_only -> "log-only"
    | Auto_map_ro -> "auto-map-ro"
    | Auto_map_rw -> "auto-map-rw")

type report = {
  fault_addr : int;
  access : Ksim.Fault.access;
  pc : string;                (* source file:line of the overflowing code *)
  buffer : int option;        (* base address of the overflowed buffer *)
  buffer_size : int option;
  time : int;                 (* virtual cycles *)
}

let pp_report ppf r =
  Fmt.pf ppf "kefence: %a overflow at 0x%x (%s) buffer=%a size=%a t=%d"
    Ksim.Fault.pp_access r.access r.fault_addr r.pc
    Fmt.(option ~none:(any "?") (fmt "0x%x"))
    r.buffer
    Fmt.(option ~none:(any "?") int)
    r.buffer_size r.time

type protect = Overflow | Underflow

(* Dynamic protection decision (§3.5: "we are investigating methods to
   dynamically decide which memory should be protected at runtime").
   Guarding costs a page plus slower vmalloc, so once an allocation
   *site* has produced [trust_site_after] allocations none of which
   overflowed, further allocations from that site fall back to plain
   kmalloc — the same confidence heuristic as KGCC's deinstrumentation.
   A site that ever overflows is guarded forever again. *)
type dynamic_policy = { trust_site_after : int }

type site_state = {
  mutable allocs : int;
  mutable overflowed : bool;
}

type t = {
  kernel : Ksim.Kernel.t;
  st_overflows : Kstats.counter;
  st_guarded : Kstats.counter;
  st_unguarded : Kstats.counter;
  mutable mode : mode;
  protect : protect;
  dynamic : dynamic_policy option;
  sites : (string, site_state) Hashtbl.t;
  unguarded : (int, unit) Hashtbl.t;  (* addresses we fell back on *)
  (* guardian vpn -> owning buffer (addr, size) *)
  guardians : (int, int * int) Hashtbl.t;
  (* buffer addr -> guardian vpn: the fast-vfree hash table *)
  buffers : (int, int) Hashtbl.t;
  mutable reports : report list;  (* newest first *)
  mutable installed : bool;
}

(* The modified page-fault handler. *)
let handler t (fault : Ksim.Fault.t) : Ksim.Address_space.resolution =
  if fault.Ksim.Fault.reason <> Ksim.Fault.Guardian then
    Ksim.Address_space.Kill
  else begin
    let space = Ksim.Kernel.kspace t.kernel in
    let page_size = Ksim.Kernel.page_size t.kernel in
    let vpn = fault.Ksim.Fault.addr / page_size in
    match Hashtbl.find_opt t.guardians vpn with
    | None -> Ksim.Address_space.Kill (* not one of ours *)
    | Some (buf_addr, buf_size) ->
        Kstats.incr t.st_overflows;
        t.reports <-
          {
            fault_addr = fault.Ksim.Fault.addr;
            access = fault.Ksim.Fault.access;
            pc = fault.Ksim.Fault.pc;
            buffer = Some buf_addr;
            buffer_size = Some buf_size;
            time = Ksim.Kernel.now t.kernel;
          }
          :: t.reports;
        (match t.mode with
        | Crash -> Ksim.Address_space.Kill
        | Log_only -> Ksim.Address_space.Emulated
        | Auto_map_ro ->
            if fault.Ksim.Fault.access = Ksim.Fault.Write then
              Ksim.Address_space.Kill
            else begin
              (* auto-map a read-only page over the guardian *)
              let mem = Ksim.Address_space.phys_mem space in
              let frame = Ksim.Phys_mem.alloc_frame mem in
              let pte =
                { (Ksim.Pte.normal ~frame ~writable:false) with
                  Ksim.Pte.guardian = false }
              in
              Ksim.Page_table.remap (Ksim.Address_space.page_table space) ~vpn
                pte;
              Ksim.Address_space.Retry
            end
        | Auto_map_rw ->
            let mem = Ksim.Address_space.phys_mem space in
            let frame = Ksim.Phys_mem.alloc_frame mem in
            Ksim.Page_table.remap (Ksim.Address_space.page_table space) ~vpn
              (Ksim.Pte.normal ~frame ~writable:true);
            Ksim.Address_space.Retry)
  end

let create ?(mode = Crash) ?(protect = Overflow) ?dynamic kernel =
  let kstats = Ksim.Kernel.stats kernel in
  let t =
    {
      kernel;
      st_overflows = Kstats.counter kstats "kefence.overflows";
      st_guarded = Kstats.counter kstats "kefence.guarded_allocs";
      st_unguarded = Kstats.counter kstats "kefence.unguarded_allocs";
      mode;
      protect;
      dynamic;
      sites = Hashtbl.create 64;
      unguarded = Hashtbl.create 256;
      guardians = Hashtbl.create 256;
      buffers = Hashtbl.create 256;
      reports = [];
      installed = false;
    }
  in
  Ksim.Address_space.push_handler (Ksim.Kernel.kspace kernel) (handler t);
  t.installed <- true;
  t

let set_mode t mode = t.mode <- mode
let mode t = t.mode

(* Should an allocation from [site] still be guarded?  Counts the
   allocation either way. *)
let site_guarded t site =
  match (t.dynamic, site) with
  | None, _ | _, None -> true
  | Some { trust_site_after }, Some site ->
      let st =
        match Hashtbl.find_opt t.sites site with
        | Some st -> st
        | None ->
            let st = { allocs = 0; overflowed = false } in
            Hashtbl.replace t.sites site st;
            st
      in
      st.allocs <- st.allocs + 1;
      st.overflowed || st.allocs <= trust_site_after

(* Allocate a guarded buffer.  The data sits flush against the guardian
   page (at the end for overflow protection, at the start for underflow
   protection) — §3.2: "the alignment of buffers to page boundaries can
   be done either at the beginning or at the end".  With a dynamic
   policy, a sufficiently trusted call site gets a plain (cheap,
   unguarded) kmalloc buffer instead. *)
let alloc ?site t size =
  if not (site_guarded t site) then begin
    Kstats.incr t.st_unguarded;
    let addr = Ksim.Kalloc.kmalloc (Ksim.Kernel.alloc t.kernel) size in
    Hashtbl.replace t.unguarded addr ();
    addr
  end
  else begin
    Kstats.incr t.st_guarded;
    let align_end = t.protect = Overflow in
    let area =
      Ksim.Kalloc.vmalloc (Ksim.Kernel.alloc t.kernel) ~guard:true ~align_end
        size
    in
    (match area.Ksim.Kalloc.guardian_vpn with
    | Some g ->
        Hashtbl.replace t.guardians g (area.Ksim.Kalloc.addr, size);
        Hashtbl.replace t.buffers area.Ksim.Kalloc.addr g
    | None -> assert false);
    area.Ksim.Kalloc.addr
  end

let free t addr =
  if Hashtbl.mem t.unguarded addr then begin
    Hashtbl.remove t.unguarded addr;
    Ksim.Kalloc.kfree (Ksim.Kernel.alloc t.kernel) addr
  end
  else
    match Hashtbl.find_opt t.buffers addr with
    | None -> invalid_arg "Kefence.free: not a kefence buffer"
    | Some g ->
        Hashtbl.remove t.guardians g;
        Hashtbl.remove t.buffers addr;
        Ksim.Kalloc.vfree (Ksim.Kernel.alloc t.kernel) addr

(* Drop the bookkeeping for a buffer whose memory someone else already
   freed — the kcrash oops path reaps a dying module's vmalloc areas
   (guardian PTEs included) through Kalloc.reap_pid, then calls this so
   the guardian/buffer tables don't point at unmapped pages.  Returns
   whether the address was ours. *)
let forget t addr =
  if Hashtbl.mem t.unguarded addr then begin
    Hashtbl.remove t.unguarded addr;
    true
  end
  else
    match Hashtbl.find_opt t.buffers addr with
    | None -> false
    | Some g ->
        Hashtbl.remove t.guardians g;
        Hashtbl.remove t.buffers addr;
        true

(* Re-arm a call site after an overflow was attributed to it: its
   allocations are guarded again from now on. *)
let distrust_site t site =
  match Hashtbl.find_opt t.sites site with
  | Some st -> st.overflowed <- true
  | None ->
      Hashtbl.replace t.sites site { allocs = 0; overflowed = true }

let unguarded_allocs t = Kstats.counter_value t.st_unguarded

let reports t = List.rev t.reports
let overflows_detected t = Kstats.counter_value t.st_overflows
let live_buffers t = Hashtbl.length t.buffers

(* Format the newest reports like the syslog lines the paper describes. *)
let syslog t =
  List.rev_map (fun r -> Fmt.str "%a" pp_report r) t.reports
