(* Unit tests for the machine/kernel substrate. *)

let zero = Ksim.Cost_model.zero

let mk_space ?(page_size = 4096) () =
  let clock = Ksim.Sim_clock.create () in
  let mem = Ksim.Phys_mem.create ~page_size in
  let space = Ksim.Address_space.create ~name:"t" ~mem ~clock ~cost:zero () in
  (clock, mem, space)

(* --- clock ------------------------------------------------------------- *)

let test_clock () =
  let c = Ksim.Sim_clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Ksim.Sim_clock.now c);
  Ksim.Sim_clock.advance c 100;
  Ksim.Sim_clock.advance c 23;
  Alcotest.(check int) "accumulates" 123 (Ksim.Sim_clock.now c);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Sim_clock.advance: negative cost") (fun () ->
      Ksim.Sim_clock.advance c (-1));
  Ksim.Sim_clock.reset c;
  Alcotest.(check int) "reset" 0 (Ksim.Sim_clock.now c)

let test_copy_cost () =
  let cost = Ksim.Cost_model.default in
  Alcotest.(check int) "zero bytes free" 0 (Ksim.Cost_model.copy_cost cost 0);
  let c1 = Ksim.Cost_model.copy_cost cost 1 in
  let c4096 = Ksim.Cost_model.copy_cost cost 4096 in
  Alcotest.(check bool) "monotone" true (c4096 > c1);
  Alcotest.(check bool) "base charged" true (c1 >= cost.Ksim.Cost_model.copy_base)

(* --- physical memory ---------------------------------------------------- *)

let test_phys_mem () =
  let mem = Ksim.Phys_mem.create ~page_size:256 in
  let f1 = Ksim.Phys_mem.alloc_frame mem in
  let f2 = Ksim.Phys_mem.alloc_frame mem in
  Alcotest.(check bool) "distinct frames" true (f1 <> f2);
  Alcotest.(check int) "live" 2 (Ksim.Phys_mem.live_frames mem);
  Ksim.Phys_mem.write mem ~frame:f1 ~off:10 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Ksim.Phys_mem.read mem ~frame:f1 ~off:10 ~len:5));
  Alcotest.(check string) "other frame untouched" "\000\000\000"
    (Bytes.to_string (Ksim.Phys_mem.read mem ~frame:f2 ~off:10 ~len:3));
  Ksim.Phys_mem.free_frame mem f1;
  Alcotest.(check int) "freed" 1 (Ksim.Phys_mem.live_frames mem);
  Alcotest.(check int) "high water" 2 (Ksim.Phys_mem.high_water mem);
  (* freed frames are recycled *)
  let f3 = Ksim.Phys_mem.alloc_frame mem in
  Alcotest.(check int) "recycled" f1 f3

let test_phys_mem_errors () =
  let mem = Ksim.Phys_mem.create ~page_size:64 in
  let f = Ksim.Phys_mem.alloc_frame mem in
  Alcotest.check_raises "write out of frame"
    (Invalid_argument "Phys_mem.write: out of frame") (fun () ->
      Ksim.Phys_mem.write mem ~frame:f ~off:60 (Bytes.of_string "xxxxx"));
  Ksim.Phys_mem.free_frame mem f;
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: double free") (fun () ->
      Ksim.Phys_mem.free_frame mem f)

let test_phys_mem_page_size () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Phys_mem.create: page_size") (fun () ->
      ignore (Ksim.Phys_mem.create ~page_size:3000));
  Alcotest.check_raises "zero" (Invalid_argument "Phys_mem.create: page_size")
    (fun () -> ignore (Ksim.Phys_mem.create ~page_size:0));
  List.iter
    (fun page_size ->
      Alcotest.(check int) "accepted" page_size
        (Ksim.Phys_mem.page_size (Ksim.Phys_mem.create ~page_size)))
    [ 64; 256; 4096 ]

(* --- page table ---------------------------------------------------------- *)

(* The page table's lookup cache must agree with a plain table on every
   step.  The vpns collide in any small power-of-two cache (multiples of
   64 share slot 0; 1/65, 63/127/-1 share a slot), and a negative vpn
   probes the empty-slot marker. *)
type pt_op = Map of int | Remap of int | Unmap of int | Find of int

let pt_vpns = [| 0; 64; 128; 4096; -64; 1; 65; 63; 127; -1 |]

let gen_pt_op =
  QCheck.Gen.(
    map2
      (fun k v ->
        let vpn = pt_vpns.(v) in
        match k with 0 -> Map vpn | 1 -> Remap vpn | 2 -> Unmap vpn | _ -> Find vpn)
      (int_bound 5) (int_bound (Array.length pt_vpns - 1)))

let pp_pt_op = function
  | Map v -> Printf.sprintf "map %d" v
  | Remap v -> Printf.sprintf "remap %d" v
  | Unmap v -> Printf.sprintf "unmap %d" v
  | Find v -> Printf.sprintf "find %d" v

let qcheck_page_table_cache =
  QCheck.Test.make ~name:"page table cache agrees with a plain table" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list pp_pt_op)
       QCheck.Gen.(list_size (int_range 1 80) gen_pt_op))
    (fun ops ->
      let pt = Ksim.Page_table.create () in
      let model = Hashtbl.create 16 in
      let fresh = ref 0 in
      let pte () =
        incr fresh;
        Ksim.Pte.normal ~frame:!fresh ~writable:(!fresh mod 2 = 0)
      in
      let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
      (* [find] agrees with the model, [Not_found] included *)
      let agrees vpn =
        match (Ksim.Page_table.find pt ~vpn, Hashtbl.find_opt model vpn) with
        | p, Some q -> p == q
        | _, None -> false
        | exception Not_found -> not (Hashtbl.mem model vpn)
      in
      let step op =
        match op with
        | Map vpn ->
            let p = pte () in
            let mapped = Hashtbl.mem model vpn in
            if not mapped then Hashtbl.replace model vpn p;
            raises (fun () -> Ksim.Page_table.map pt ~vpn p) = mapped && agrees vpn
        | Remap vpn ->
            let p = pte () in
            Hashtbl.replace model vpn p;
            Ksim.Page_table.remap pt ~vpn p;
            agrees vpn
        | Unmap vpn ->
            let mapped = Hashtbl.mem model vpn in
            Hashtbl.remove model vpn;
            raises (fun () -> Ksim.Page_table.unmap pt ~vpn) = not mapped && agrees vpn
        | Find vpn -> agrees vpn
      in
      List.for_all step ops
      && Array.for_all agrees pt_vpns
      && Ksim.Page_table.mapped pt = Hashtbl.length model)

(* --- address space ------------------------------------------------------ *)

let test_address_space_rw () =
  let _, _, space = mk_space () in
  Ksim.Address_space.map_fresh space ~vpn:10 ~npages:2 ~writable:true;
  let addr = (10 * 4096) + 100 in
  Ksim.Address_space.write_string space ~addr "kernel data";
  Alcotest.(check string) "read back" "kernel data"
    (Ksim.Address_space.read_string space ~addr ~len:11);
  (* spanning a page boundary *)
  let addr2 = (11 * 4096) - 3 in
  Ksim.Address_space.write_string space ~addr:addr2 "abcdef";
  Alcotest.(check string) "cross-page" "abcdef"
    (Ksim.Address_space.read_string space ~addr:addr2 ~len:6)

let test_address_space_int () =
  let _, _, space = mk_space () in
  Ksim.Address_space.map_fresh space ~vpn:1 ~npages:1 ~writable:true;
  let addr = 4096 + 8 in
  Ksim.Address_space.write_int space ~addr 0x1234_5678_9abc;
  Alcotest.(check int) "int round trip" 0x1234_5678_9abc
    (Ksim.Address_space.read_int space ~addr);
  Ksim.Address_space.write_int space ~addr (-42);
  Alcotest.(check int) "negative" (-42) (Ksim.Address_space.read_int space ~addr)

let test_fault_not_present () =
  let _, _, space = mk_space () in
  (try
     ignore (Ksim.Address_space.read_u8 space ~addr:999999);
     Alcotest.fail "expected fault"
   with Ksim.Fault.Fault f ->
     Alcotest.(check bool) "not present" true
       (f.Ksim.Fault.reason = Ksim.Fault.Not_present))

let test_fault_protection () =
  let _, _, space = mk_space () in
  Ksim.Address_space.map_fresh space ~vpn:5 ~npages:1 ~writable:false;
  ignore (Ksim.Address_space.read_u8 space ~addr:(5 * 4096));
  (try
     Ksim.Address_space.write_u8 space ~addr:(5 * 4096) 1;
     Alcotest.fail "expected protection fault"
   with Ksim.Fault.Fault f ->
     Alcotest.(check bool) "protection" true
       (f.Ksim.Fault.reason = Ksim.Fault.Protection))

let test_fault_guardian_and_handler () =
  let _, _, space = mk_space () in
  Ksim.Address_space.map_guardian space ~vpn:7;
  let seen = ref None in
  Ksim.Address_space.push_handler space (fun f ->
      seen := Some f.Ksim.Fault.reason;
      Ksim.Address_space.Emulated);
  (* handler emulates: no exception, writes discarded, reads zero *)
  Ksim.Address_space.write_u8 space ~addr:(7 * 4096) 99;
  Alcotest.(check bool) "guardian seen" true (!seen = Some Ksim.Fault.Guardian);
  Ksim.Address_space.pop_handler space;
  (try
     Ksim.Address_space.write_u8 space ~addr:(7 * 4096) 99;
     Alcotest.fail "expected fault after pop"
   with Ksim.Fault.Fault _ -> ())

let test_segment () =
  let seg = Ksim.Segment.make ~name:"s" ~base:0x1000 ~limit:0x100 () in
  Alcotest.(check bool) "inside" true
    (Ksim.Segment.contains seg ~addr:0x1000 ~len:0x100);
  Alcotest.(check bool) "outside" false
    (Ksim.Segment.contains seg ~addr:0x10ff ~len:2);
  let _, _, space = mk_space () in
  Ksim.Address_space.map_fresh space ~vpn:0 ~npages:4 ~writable:true;
  Ksim.Address_space.set_segment space seg;
  (try
     ignore (Ksim.Address_space.read_u8 space ~addr:0x2000);
     Alcotest.fail "expected segment violation"
   with Ksim.Fault.Fault f ->
     Alcotest.(check bool) "segment violation" true
       (f.Ksim.Fault.reason = Ksim.Fault.Segment_violation));
  (* inside the segment is fine *)
  ignore (Ksim.Address_space.read_u8 space ~addr:0x1010);
  (* accesses whose end would overflow past max_int stay outside *)
  let iso = Ksim.Segment.make ~name:"cosy-isolated" ~base:4096 ~limit:4096 () in
  Alcotest.(check bool) "8 bytes at max_int - 3" false
    (Ksim.Segment.contains iso ~addr:(max_int - 3) ~len:8);
  Alcotest.(check bool) "1 byte at max_int" false
    (Ksim.Segment.contains iso ~addr:max_int ~len:1);
  Alcotest.(check bool) "last byte" true
    (Ksim.Segment.contains iso ~addr:8191 ~len:1)

(* The scalar accessors on a mapped, in-page address: one mem_access
   charge, one TLB access, and no allocation at all. *)
let test_scalar_fast_path () =
  let clock = Ksim.Sim_clock.create () in
  let stats = Kstats.create ~enabled:true () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let cost = Ksim.Cost_model.default in
  let space = Ksim.Address_space.create ~stats ~name:"s" ~mem ~clock ~cost () in
  Ksim.Address_space.map_fresh space ~vpn:3 ~npages:2 ~writable:true;
  let tlb_accesses () =
    Kstats.counter_value (Kstats.counter stats "tlb.s.hits")
    + Kstats.counter_value (Kstats.counter stats "tlb.s.misses")
  in
  let addr = (3 * 4096) + 16 in
  ignore (Ksim.Address_space.read_u8 space ~addr) (* warm the TLB *);
  let check name f =
    let c0 = Ksim.Sim_clock.now clock and a0 = tlb_accesses () in
    f ();
    Alcotest.(check int) (name ^ ": one mem_access") cost.Ksim.Cost_model.mem_access
      (Ksim.Sim_clock.now clock - c0);
    Alcotest.(check int) (name ^ ": one TLB access") 1 (tlb_accesses () - a0);
    let words n =
      let w0 = Gc.minor_words () in
      for _ = 1 to n do f () done;
      Gc.minor_words () -. w0
    in
    Alcotest.(check (float 0.)) (name ^ ": no allocation") (words 0) (words 1000)
  in
  check "write_u8" (fun () -> Ksim.Address_space.write_u8 ~pc:"t:1" space ~addr 0x1ab);
  check "read_u8" (fun () ->
      ignore (Sys.opaque_identity (Ksim.Address_space.read_u8 ~pc:"t:2" space ~addr)));
  check "write_int" (fun () -> Ksim.Address_space.write_int space ~addr:(addr + 8) (-7));
  check "read_int" (fun () ->
      ignore (Sys.opaque_identity (Ksim.Address_space.read_int space ~addr:(addr + 8))));
  Alcotest.(check int) "u8 round trip" 0xab (Ksim.Address_space.read_u8 space ~addr);
  Alcotest.(check int) "int round trip" (-7)
    (Ksim.Address_space.read_int space ~addr:(addr + 8));
  (* a word straddling two pages takes one charge and one TLB access
     per page *)
  let straddle = (4 * 4096) - 3 in
  Ksim.Address_space.write_int space ~addr:straddle 0x0102_0304_0506;
  let c0 = Ksim.Sim_clock.now clock and a0 = tlb_accesses () in
  Alcotest.(check int) "straddling round trip" 0x0102_0304_0506
    (Ksim.Address_space.read_int space ~addr:straddle);
  Alcotest.(check int) "straddle: two mem_access" (2 * cost.Ksim.Cost_model.mem_access)
    (Ksim.Sim_clock.now clock - c0);
  Alcotest.(check int) "straddle: two TLB accesses" 2 (tlb_accesses () - a0);
  (* an emulated guardian page reads as zero and drops writes *)
  Ksim.Address_space.map_guardian space ~vpn:9;
  Ksim.Address_space.push_handler space (fun _ -> Ksim.Address_space.Emulated);
  Ksim.Address_space.write_int space ~addr:(9 * 4096) 5;
  Alcotest.(check int) "emulated int" 0 (Ksim.Address_space.read_int space ~addr:(9 * 4096));
  Alcotest.(check int) "emulated u8" 0 (Ksim.Address_space.read_u8 space ~addr:(9 * 4096))

let test_tlb () =
  let tlb = Ksim.Tlb.create ~slots:4 () in
  Alcotest.(check bool) "first access misses" false (Ksim.Tlb.access tlb ~vpn:1);
  Alcotest.(check bool) "second hits" true (Ksim.Tlb.access tlb ~vpn:1);
  Alcotest.(check bool) "conflict evicts" false (Ksim.Tlb.access tlb ~vpn:5);
  Alcotest.(check bool) "original evicted" false (Ksim.Tlb.access tlb ~vpn:1)

(* --- allocators --------------------------------------------------------- *)

let mk_kalloc () =
  let clock = Ksim.Sim_clock.create () in
  let mem = Ksim.Phys_mem.create ~page_size:4096 in
  let space = Ksim.Address_space.create ~name:"k" ~mem ~clock ~cost:zero () in
  Ksim.Kalloc.create ~space ~clock ~cost:zero ()

let test_kmalloc () =
  let ka = mk_kalloc () in
  let a = Ksim.Kalloc.kmalloc ka 100 in
  let b = Ksim.Kalloc.kmalloc ka 100 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100 || a >= b + 100);
  Alcotest.(check int) "live" 2 (Ksim.Kalloc.kmalloc_live_count ka);
  Ksim.Kalloc.kfree ka a;
  Alcotest.(check int) "after free" 1 (Ksim.Kalloc.kmalloc_live_count ka);
  Alcotest.check_raises "double kfree"
    (Invalid_argument "kfree: not a live kmalloc address") (fun () ->
      Ksim.Kalloc.kfree ka a)

let test_vmalloc_guard () =
  let ka = mk_kalloc () in
  let area = Ksim.Kalloc.vmalloc ka ~guard:true ~align_end:true 100 in
  (* end-aligned: buffer end coincides with page end *)
  Alcotest.(check int) "end aligned"
    0 ((area.Ksim.Kalloc.addr + 100) mod 4096);
  Alcotest.(check bool) "guardian present" true
    (area.Ksim.Kalloc.guardian_vpn <> None);
  let stats = Ksim.Kalloc.stats ka in
  Alcotest.(check int) "one page live" 1 stats.Ksim.Kalloc.pages_live;
  Ksim.Kalloc.vfree ka area.Ksim.Kalloc.addr;
  let stats = Ksim.Kalloc.stats ka in
  Alcotest.(check int) "freed" 0 stats.Ksim.Kalloc.pages_live;
  Alcotest.(check int) "high water" 1 stats.Ksim.Kalloc.pages_high_water

let test_vmalloc_stats () =
  let ka = mk_kalloc () in
  let a1 = Ksim.Kalloc.vmalloc ka 80 in
  let a2 = Ksim.Kalloc.vmalloc ka 80 in
  let _ = Ksim.Kalloc.vmalloc ka 8192 in
  let s = Ksim.Kalloc.stats ka in
  Alcotest.(check int) "allocs" 3 s.Ksim.Kalloc.allocs;
  Alcotest.(check int) "pages live" 4 s.Ksim.Kalloc.pages_live;
  Alcotest.(check (float 0.01)) "mean size" ((80. +. 80. +. 8192.) /. 3.)
    s.Ksim.Kalloc.mean_alloc_bytes;
  Ksim.Kalloc.vfree ka a1.Ksim.Kalloc.addr;
  Ksim.Kalloc.vfree ka a2.Ksim.Kalloc.addr

(* --- sync primitives ---------------------------------------------------- *)

let test_spinlock () =
  let l = Ksim.Spinlock.create "l" in
  Ksim.Spinlock.lock l;
  Alcotest.(check bool) "locked" true (Ksim.Spinlock.is_locked l);
  Ksim.Spinlock.unlock l;
  Alcotest.(check bool) "unlocked" false (Ksim.Spinlock.is_locked l);
  Ksim.Spinlock.lock ~pid:3 l;
  (try
     Ksim.Spinlock.lock ~pid:3 l;
     Alcotest.fail "expected deadlock"
   with Ksim.Spinlock.Deadlock _ -> ());
  Ksim.Spinlock.unlock l;
  (try
     Ksim.Spinlock.unlock l;
     Alcotest.fail "expected unlock-of-free"
   with Ksim.Spinlock.Deadlock _ -> ());
  Alcotest.(check int) "acquisitions" 2 (Ksim.Spinlock.acquisitions l)

let test_with_lock_releases_on_exn () =
  let l = Ksim.Spinlock.create "l" in
  (try
     Ksim.Spinlock.with_lock l (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "released" false (Ksim.Spinlock.is_locked l)

let test_refcount () =
  let r = Ksim.Refcount.create ~initial:1 "r" in
  Ksim.Refcount.get r;
  Alcotest.(check int) "count" 2 (Ksim.Refcount.count r);
  Alcotest.(check bool) "not zero" false (Ksim.Refcount.put r);
  Alcotest.(check bool) "zero" true (Ksim.Refcount.put r);
  (try
     ignore (Ksim.Refcount.put r);
     Alcotest.fail "expected underflow"
   with Ksim.Refcount.Underflow _ -> ())

let test_semaphore () =
  let s = Ksim.Semaphore.create ~initial:2 "s" in
  Ksim.Semaphore.down s;
  Ksim.Semaphore.down s;
  (try
     Ksim.Semaphore.down s;
     Alcotest.fail "expected would-block"
   with Ksim.Semaphore.Would_block _ -> ());
  Ksim.Semaphore.up s;
  Alcotest.(check bool) "try after up" true (Ksim.Semaphore.try_down s);
  Alcotest.(check bool) "try empty" false (Ksim.Semaphore.try_down s)

let test_instrument_events () =
  let seen = ref [] in
  Ksim.Instrument.log := (fun ev -> seen := ev :: !seen);
  Ksim.Instrument.enabled := true;
  let l = Ksim.Spinlock.create "dl" in
  Ksim.Spinlock.lock ~file:"f.ml" ~line:3 l;
  Ksim.Spinlock.unlock l;
  Ksim.Instrument.enabled := false;
  Ksim.Instrument.log := (fun _ -> ());
  Alcotest.(check int) "two events" 2 (List.length !seen);
  match List.rev !seen with
  | [ a; b ] ->
      Alcotest.(check bool) "lock kind" true (a.Ksim.Instrument.kind = Ksim.Instrument.Lock);
      Alcotest.(check bool) "unlock kind" true (b.Ksim.Instrument.kind = Ksim.Instrument.Unlock);
      Alcotest.(check string) "file" "f.ml" a.Ksim.Instrument.file
  | _ -> Alcotest.fail "bad events"

(* --- scheduler / kernel ------------------------------------------------- *)

let test_scheduler_preemption () =
  let clock = Ksim.Sim_clock.create () in
  let cost = { zero with Ksim.Cost_model.timeslice = 100; context_switch = 1 } in
  let sched = Ksim.Scheduler.create ~clock ~cost () in
  let p1 = Ksim.Scheduler.spawn sched ~name:"a" in
  let _p2 = Ksim.Scheduler.spawn sched ~name:"b" in
  Alcotest.(check int) "p1 running" p1.Ksim.Kproc.pid
    (Ksim.Scheduler.current sched).Ksim.Kproc.pid;
  Ksim.Sim_clock.advance clock 150;
  Ksim.Scheduler.checkpoint sched;
  Alcotest.(check int) "preempted once" 1 (Ksim.Scheduler.preemptions sched);
  Alcotest.(check bool) "switched away" true
    ((Ksim.Scheduler.current sched).Ksim.Kproc.pid <> p1.Ksim.Kproc.pid)

let test_smp_placement_and_clocks () =
  let clock = Ksim.Sim_clock.create () in
  let sched = Ksim.Scheduler.create ~clock ~cost:zero ~ncpus:2 () in
  (* least-loaded placement spreads processes across the CPUs *)
  let procs = List.init 4 (fun i -> Ksim.Scheduler.spawn sched ~name:(Printf.sprintf "p%d" i)) in
  let on_cpu c =
    List.length (List.filter (fun p -> p.Ksim.Kproc.cpu = c) procs)
  in
  Alcotest.(check int) "two on cpu0" 2 (on_cpu 0);
  Alcotest.(check int) "two on cpu1" 2 (on_cpu 1);
  (* run_on credits the global-clock delta to that CPU's local clock *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () -> Ksim.Sim_clock.advance clock 100);
  Ksim.Scheduler.run_on sched ~cpu:1 (fun () -> Ksim.Sim_clock.advance clock 250);
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () -> Ksim.Sim_clock.advance clock 50);
  Alcotest.(check int) "cpu0 time" 150 (Ksim.Scheduler.cpu_time sched 0);
  Alcotest.(check int) "cpu1 time" 250 (Ksim.Scheduler.cpu_time sched 1);
  Alcotest.(check int) "makespan is busiest cpu" 250 (Ksim.Scheduler.makespan sched);
  (* local_now tracks the active CPU mid-slice *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 30;
      Alcotest.(check int) "local_now mid-slice" 180 (Ksim.Scheduler.local_now sched))

let test_smp_timeslice_per_cpu () =
  let clock = Ksim.Sim_clock.create () in
  let cost = { zero with Ksim.Cost_model.timeslice = 100; context_switch = 1 } in
  let sched = Ksim.Scheduler.create ~clock ~cost ~ncpus:2 () in
  let a = Ksim.Scheduler.spawn ~cpu:0 sched ~name:"a" in
  let _b = Ksim.Scheduler.spawn ~cpu:0 sched ~name:"b" in
  let _c = Ksim.Scheduler.spawn ~cpu:1 sched ~name:"c" in
  (* burn a timeslice on cpu0: its runqueue rotates a -> b *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 150;
      Ksim.Scheduler.checkpoint sched;
      Alcotest.(check bool) "cpu0 rotated" true
        ((Ksim.Scheduler.current sched).Ksim.Kproc.pid <> a.Ksim.Kproc.pid));
  Alcotest.(check int) "one preemption" 1 (Ksim.Scheduler.preemptions sched);
  (* cpu1's lone process is unaffected: nothing to rotate to *)
  Ksim.Scheduler.run_on sched ~cpu:1 (fun () ->
      Ksim.Sim_clock.advance clock 150;
      Ksim.Scheduler.checkpoint sched;
      Alcotest.(check string) "cpu1 keeps c" "c"
        (Ksim.Scheduler.current sched).Ksim.Kproc.name)

let test_kill_last_respawns_init () =
  let clock = Ksim.Sim_clock.create () in
  let sched = Ksim.Scheduler.create ~clock ~cost:zero () in
  let p = Ksim.Scheduler.spawn sched ~name:"only" in
  Alcotest.(check int) "one process" 1 (Ksim.Scheduler.process_count sched);
  Ksim.Scheduler.kill sched p;
  (* the machine always runs something *)
  Alcotest.(check int) "respawned" 1 (Ksim.Scheduler.process_count sched);
  Alcotest.(check string) "it is init" "init"
    (Ksim.Scheduler.current sched).Ksim.Kproc.name

let mk_lock_ctx ?(ncpus = 2) () =
  let clock = Ksim.Sim_clock.create () in
  let cost =
    { zero with
      Ksim.Cost_model.lock_hold = 1_000;
      spin_cap = 10_000;
      cacheline_bounce = 0 }
  in
  let sched = Ksim.Scheduler.create ~clock ~cost ~ncpus () in
  ( clock,
    sched,
    {
      Ksim.Spinlock.sched;
      clock;
      cost;
      stats = Kstats.create ();
      registry = Ksim.Spinlock.new_registry ();
    } )

let test_spinlock_smp_contention () =
  let clock, sched, ctx = mk_lock_ctx () in
  let l = Ksim.Spinlock.create ~ctx "dl" in
  (* cpu0 holds the lock over [100, 1100) in parallel time *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 100;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  (* cpu1 arrives at local time 500 — inside cpu0's hold window *)
  Ksim.Scheduler.run_on sched ~cpu:1 (fun () ->
      Ksim.Sim_clock.advance clock 500;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  Alcotest.(check int) "contended" 1 (Ksim.Spinlock.contended l);
  (* waited out the remainder of cpu0's hold: 1100 - 500 *)
  Alcotest.(check int) "spin cycles" 600 (Ksim.Spinlock.spin_cycles l);
  (* cpu1's clock advanced past cpu0's release plus its own hold *)
  Alcotest.(check int) "cpu1 local time" 2100 (Ksim.Scheduler.cpu_time sched 1);
  (* a later arrival on cpu0 after everything drained is uncontended *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 5_000;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  Alcotest.(check int) "still one contention" 1 (Ksim.Spinlock.contended l)

let test_spinlock_lagging_cpu_owes_nothing () =
  let clock, sched, ctx = mk_lock_ctx () in
  let l = Ksim.Spinlock.create ~ctx "dl" in
  (* cpu0 races far ahead (say, past a long disk wait) and takes the
     lock late in parallel time *)
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 1_000_000;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  (* cpu1 arrives much earlier in wall time: the lock was free then *)
  Ksim.Scheduler.run_on sched ~cpu:1 (fun () ->
      Ksim.Sim_clock.advance clock 100;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  Alcotest.(check int) "no contention" 0 (Ksim.Spinlock.contended l);
  Alcotest.(check int) "no spin" 0 (Ksim.Spinlock.spin_cycles l)

let test_spinlock_uniprocessor_inert () =
  let clock, sched, ctx = mk_lock_ctx ~ncpus:1 () in
  let l = Ksim.Spinlock.create ~ctx "dl" in
  Ksim.Scheduler.run_on sched ~cpu:0 (fun () ->
      Ksim.Sim_clock.advance clock 100;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l;
      Ksim.Spinlock.lock l;
      Ksim.Spinlock.unlock l);
  Alcotest.(check int) "no contention" 0 (Ksim.Spinlock.contended l);
  (* no lock_hold charge either: the clock saw only our own advance *)
  Alcotest.(check int) "no hold charge" 100 (Ksim.Sim_clock.now clock);
  Alcotest.(check int) "acquisitions counted" 2 (Ksim.Spinlock.acquisitions l)

let test_kernel_boundary () =
  let k = Ksim.Kernel.create () in
  Alcotest.(check bool) "user mode" true (Ksim.Kernel.mode k = Ksim.Kernel.User);
  Ksim.Kernel.enter_kernel k;
  Alcotest.(check bool) "kernel mode" true
    (Ksim.Kernel.mode k = Ksim.Kernel.Kernel_mode);
  (try
     Ksim.Kernel.enter_kernel k;
     Alcotest.fail "double enter"
   with Ksim.Kernel.Kernel_mode_violation _ -> ());
  Ksim.Kernel.charge_copy_from_user k 100;
  Ksim.Kernel.exit_kernel k;
  Alcotest.(check int) "one crossing" 1 (Ksim.Kernel.crossings k);
  Alcotest.(check int) "bytes in" 100 (Ksim.Kernel.bytes_from_user k);
  (try
     Ksim.Kernel.charge_copy_to_user k 1;
     Alcotest.fail "copy in user mode"
   with Ksim.Kernel.Kernel_mode_violation _ -> ());
  (* on a default registry, the charge-only and address-based copies
     both bump the counters, which agree with the accessors *)
  let k = Ksim.Kernel.create () in
  let stats = Ksim.Kernel.stats k in
  let a = Ksim.Kernel.user_alloc k 64 in
  Ksim.Kernel.enter_kernel k;
  Ksim.Kernel.charge_copy_from_user k 100;
  Ksim.Kernel.charge_copy_to_user k 7;
  ignore (Ksim.Kernel.copy_from_user k ~uaddr:a ~len:16);
  Ksim.Kernel.copy_to_user k ~uaddr:a (Bytes.make 8 'x');
  Ksim.Kernel.exit_kernel k;
  let counter name =
    match Kstats.find stats name with Some (Kstats.Counter_v v) -> v | _ -> -1
  in
  Alcotest.(check int) "all copies in" 116 (Ksim.Kernel.bytes_from_user k);
  Alcotest.(check int) "all copies out" 15 (Ksim.Kernel.bytes_to_user k);
  Alcotest.(check int) "kernel.bytes_from_user = accessor"
    (Ksim.Kernel.bytes_from_user k) (counter "kernel.bytes_from_user");
  Alcotest.(check int) "kernel.bytes_to_user = accessor"
    (Ksim.Kernel.bytes_to_user k) (counter "kernel.bytes_to_user");
  Alcotest.(check int) "kernel.crossings = accessor"
    (Ksim.Kernel.crossings k) (counter "kernel.crossings");
  Alcotest.(check int) "one crossing on a default registry" 1
    (counter "kernel.crossings")

let test_kernel_times_io_split () =
  let k = Ksim.Kernel.create () in
  let (), t =
    Ksim.Kernel.timed k (fun () ->
        Ksim.Kernel.charge_user k 1_000;
        Ksim.Kernel.enter_kernel k;
        Ksim.Kernel.charge_kernel k 2_000;
        Ksim.Kernel.charge_io k 50_000;
        Ksim.Kernel.exit_kernel k)
  in
  Alcotest.(check int) "utime" 1_000 t.Ksim.Kernel.utime;
  (* stime = entry + kernel cpu + exit, excluding the io wait *)
  let cost = Ksim.Kernel.cost k in
  Alcotest.(check int) "stime excludes io"
    (cost.Ksim.Cost_model.syscall_entry + 2_000 + cost.Ksim.Cost_model.syscall_exit)
    t.Ksim.Kernel.stime;
  Alcotest.(check bool) "elapsed includes io" true (t.Ksim.Kernel.elapsed > 50_000)

let test_irq_balance () =
  let k = Ksim.Kernel.create () in
  Ksim.Kernel.irq_disable k;
  Ksim.Kernel.irq_disable k;
  Alcotest.(check int) "depth" 2 (Ksim.Kernel.irq_depth k);
  Ksim.Kernel.irq_enable k;
  Ksim.Kernel.irq_enable k;
  try
    Ksim.Kernel.irq_enable k;
    Alcotest.fail "unbalanced"
  with Ksim.Kernel.Irq_unbalanced -> ()

let test_user_alloc () =
  let k = Ksim.Kernel.create () in
  let a = Ksim.Kernel.user_alloc k 10_000 in
  let space = Ksim.Kernel.uspace k in
  Ksim.Address_space.write_string space ~addr:a "user!";
  Alcotest.(check string) "user mem rw" "user!"
    (Ksim.Address_space.read_string space ~addr:a ~len:5)

(* --- qcheck: kmalloc/vmalloc invariants --------------------------------- *)

let qcheck_kalloc =
  QCheck.Test.make ~name:"kalloc random alloc/free keeps counts consistent"
    ~count:100
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let ka = mk_kalloc () in
      let live_vm = ref [] in
      let live_km = ref [] in
      List.iter
        (fun (vm, size) ->
          let size = 1 + (size mod 9000) in
          if vm then begin
            let a = Ksim.Kalloc.vmalloc ka ~guard:true size in
            live_vm := a.Ksim.Kalloc.addr :: !live_vm
          end
          else live_km := Ksim.Kalloc.kmalloc ka size :: !live_km)
        ops;
      let s = Ksim.Kalloc.stats ka in
      let ok1 = s.Ksim.Kalloc.live_areas = List.length !live_vm in
      let ok2 = Ksim.Kalloc.kmalloc_live_count ka = List.length !live_km in
      List.iter (Ksim.Kalloc.vfree ka) !live_vm;
      List.iter (Ksim.Kalloc.kfree ka) !live_km;
      let s = Ksim.Kalloc.stats ka in
      ok1 && ok2 && s.Ksim.Kalloc.pages_live = 0
      && Ksim.Kalloc.kmalloc_live_count ka = 0)

let qcheck_address_space =
  QCheck.Test.make ~name:"address space write/read round trips" ~count:100
    QCheck.(pair (int_bound 8000) (string_of_size Gen.(int_range 1 64)))
    (fun (off, s) ->
      QCheck.assume (String.length s > 0);
      let _, _, space = mk_space () in
      Ksim.Address_space.map_fresh space ~vpn:0 ~npages:4 ~writable:true;
      Ksim.Address_space.write_string space ~addr:off s;
      Ksim.Address_space.read_string space ~addr:off ~len:(String.length s) = s)

let () =
  Alcotest.run "ksim"
    [
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock;
          Alcotest.test_case "copy cost" `Quick test_copy_cost;
        ] );
      ( "phys-mem",
        [
          Alcotest.test_case "alloc/free/rw" `Quick test_phys_mem;
          Alcotest.test_case "errors" `Quick test_phys_mem_errors;
          Alcotest.test_case "page size" `Quick test_phys_mem_page_size;
        ] );
      ("page-table", [ QCheck_alcotest.to_alcotest qcheck_page_table_cache ]);
      ( "address-space",
        [
          Alcotest.test_case "read/write" `Quick test_address_space_rw;
          Alcotest.test_case "ints" `Quick test_address_space_int;
          Alcotest.test_case "not present" `Quick test_fault_not_present;
          Alcotest.test_case "protection" `Quick test_fault_protection;
          Alcotest.test_case "guardian+handler" `Quick test_fault_guardian_and_handler;
          Alcotest.test_case "segments" `Quick test_segment;
          Alcotest.test_case "scalar fast path" `Quick test_scalar_fast_path;
          Alcotest.test_case "tlb" `Quick test_tlb;
          QCheck_alcotest.to_alcotest qcheck_address_space;
        ] );
      ( "allocators",
        [
          Alcotest.test_case "kmalloc" `Quick test_kmalloc;
          Alcotest.test_case "vmalloc guard" `Quick test_vmalloc_guard;
          Alcotest.test_case "vmalloc stats" `Quick test_vmalloc_stats;
          QCheck_alcotest.to_alcotest qcheck_kalloc;
        ] );
      ( "sync",
        [
          Alcotest.test_case "spinlock" `Quick test_spinlock;
          Alcotest.test_case "with_lock exn" `Quick test_with_lock_releases_on_exn;
          Alcotest.test_case "refcount" `Quick test_refcount;
          Alcotest.test_case "semaphore" `Quick test_semaphore;
          Alcotest.test_case "instrument events" `Quick test_instrument_events;
        ] );
      ( "smp",
        [
          Alcotest.test_case "placement+clocks" `Quick test_smp_placement_and_clocks;
          Alcotest.test_case "timeslice per cpu" `Quick test_smp_timeslice_per_cpu;
          Alcotest.test_case "kill last respawns init" `Quick test_kill_last_respawns_init;
          Alcotest.test_case "spinlock contention" `Quick test_spinlock_smp_contention;
          Alcotest.test_case "lagging cpu free" `Quick test_spinlock_lagging_cpu_owes_nothing;
          Alcotest.test_case "uniprocessor inert" `Quick test_spinlock_uniprocessor_inert;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "preemption" `Quick test_scheduler_preemption;
          Alcotest.test_case "boundary" `Quick test_kernel_boundary;
          Alcotest.test_case "times io split" `Quick test_kernel_times_io_split;
          Alcotest.test_case "irq balance" `Quick test_irq_balance;
          Alcotest.test_case "user alloc" `Quick test_user_alloc;
        ] );
    ]
