(* kverify_tool: learn a workload's syscall-flow automaton, check runs
   against it, and inspect what the kopt optimizer makes of a compound.

   Usage:
     dune exec bin/kverify_tool.exe -- learn -w postmark -o postmark.sfi
     dune exec bin/kverify_tool.exe -- check postmark.sfi -w postmark
     dune exec bin/kverify_tool.exe -- check postmark.sfi -w lsdir --policy deny
     dune exec bin/kverify_tool.exe -- opt compound.cosy
     dune exec bin/kverify_tool.exe -- opt --demo coalesce -o compound.cosy

   [learn] boots a system with an strace-style recorder attached, runs
   the named workload, compiles the recorded syscall digraph into an SFI
   automaton, and writes its textual form.  [check] loads an automaton,
   installs it as the dispatch gate under the chosen policy, re-runs a
   workload, and reports dispatches checked vs violations — exit status
   1 when any violation fired, so it scripts like a test.  [opt] reads
   an encoded compound (or generates a --demo one), runs kverify's
   checker on it, and prints the original ops next to the kopt plan:
   coalesced bulk copies, fused splice pairs, hoisted loop spans — exit
   status 1 when the compound is rejected. *)

open Cmdliner

(* --- learn ------------------------------------------------------------- *)

let learn workload out =
  let t = Core.boot_with Core.Config.default in
  let rec_ = Core.trace t in
  ignore (Named_workload.run workload (Core.sys t));
  let a = Core.Verify.learn rec_ in
  let text = Core.Verify.Sfi.to_string a in
  (match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Fmt.epr "wrote %s@." path);
  Fmt.epr "learned %d syscalls, %d transitions from %s@."
    (List.length (Core.Verify.Sfi.members a))
    (List.length (Core.Verify.Sfi.transitions a))
    workload

(* --- check ------------------------------------------------------------- *)

let policy_of_string = function
  | "kill" -> Core.Verify.Kill
  | "deny" -> Core.Verify.Deny
  | "log" -> Core.Verify.Log
  | other -> Fmt.failwith "unknown policy %s (expected kill, deny, log)" other

let check file workload policy =
  let a =
    try Core.Verify.Sfi.of_string (Named_workload.read_file file)
    with Core.Verify.Sfi.Parse_error msg ->
      Fmt.failwith "%s: not an sfi automaton: %s" file msg
  in
  let t =
    Core.boot_with
      { Core.Config.default with verify = Some (policy_of_string policy) }
  in
  let kv = Option.get (Core.kverify t) in
  Core.Verify.set_automaton kv (Some a);
  (try ignore (Named_workload.run workload (Core.sys t))
   with Core.Verify.Flow_violation { pid; sysno } ->
     Fmt.pr "flow violation: pid %d killed attempting %s@." pid
       (Core.Sysno.to_string sysno));
  Fmt.pr "%s against %s: %d dispatches checked, %d violations@." workload file
    (Core.Verify.checked kv) (Core.Verify.violations kv);
  if Core.Verify.violations kv > 0 then exit 1

(* --- opt --------------------------------------------------------------- *)

module Op = Cosy.Cosy_op

let sysno name = Option.get (Op.sysno_of_name name)

(* Small generated compounds, one per rewrite family, for demos and the
   kopt smoke target. *)
let demo_ops = function
  | "loop" ->
      (* r0=i, r1=cond, r2=ret, r3=tmp: the counted getpid loop the
         checker proves bounded — every body op lands in a hoisted span *)
      let iters = 5 in
      ( 4,
        [
          Op.Set { dst = 0; src = Op.Const 0 };
          Op.Arith { dst = 1; op = Op.Alt; a = Op.Slot 0; b = Op.Const iters };
          Op.Jz { cond = Op.Slot 1; target = 7 };
          Op.Syscall { dst = 2; sysno = sysno "getpid"; args = [] };
          Op.Arith { dst = 3; op = Op.Aadd; a = Op.Slot 0; b = Op.Const 1 };
          Op.Set { dst = 0; src = Op.Slot 3 };
          Op.Jmp 1;
          Op.Halt;
        ] )
  | "coalesce" ->
      (* two contiguous reads on one fd: merges into a bulk read *)
      ( 4,
        [
          Op.Syscall
            { dst = 0; sysno = sysno "open"; args = [ Op.Str "/demo"; Op.Const 0 ] };
          Op.Syscall
            {
              dst = 1;
              sysno = sysno "read";
              args = [ Op.Slot 0; Op.Shared 0; Op.Const 512 ];
            };
          Op.Syscall
            {
              dst = 2;
              sysno = sysno "read";
              args = [ Op.Slot 0; Op.Shared 512; Op.Const 512 ];
            };
          Op.Syscall { dst = 3; sysno = sysno "close"; args = [ Op.Slot 0 ] };
          Op.Halt;
        ] )
  | "fuse" ->
      (* read one fd, write the same shared region to another: splice *)
      ( 6,
        [
          Op.Syscall
            { dst = 0; sysno = sysno "open"; args = [ Op.Str "/src"; Op.Const 0 ] };
          Op.Syscall
            { dst = 1; sysno = sysno "open"; args = [ Op.Str "/dst"; Op.Const 3 ] };
          Op.Syscall
            {
              dst = 2;
              sysno = sysno "read";
              args = [ Op.Slot 0; Op.Shared 0; Op.Const 1024 ];
            };
          Op.Syscall
            {
              dst = 3;
              sysno = sysno "write";
              args = [ Op.Slot 1; Op.Shared 0; Op.Const 1024 ];
            };
          Op.Syscall { dst = 4; sysno = sysno "close"; args = [ Op.Slot 0 ] };
          Op.Syscall { dst = 5; sysno = sysno "close"; args = [ Op.Slot 1 ] };
          Op.Halt;
        ] )
  | other ->
      Fmt.failwith "unknown demo %s (expected loop, coalesce, fuse)" other

(* Reconstruct a compound from its wire bytes (the header carries the
   op and slot counts). *)
let read_compound path =
  let buf = Bytes.of_string (Named_workload.read_file path) in
  if Bytes.length buf < 12 || Bytes.sub_string buf 0 4 <> "COSY" then
    Fmt.failwith "%s: not an encoded compound (missing COSY magic)" path;
  {
    Cosy.Compound.buf;
    op_count = Int32.to_int (Bytes.get_int32_le buf 4);
    slot_count = Int32.to_int (Bytes.get_int32_le buf 8);
  }

let opt file demo out shared_size =
  let compound =
    match (demo, file) with
    | Some kind, _ ->
        let slot_count, ops = demo_ops kind in
        let c = Cosy.Compound.encode ~slot_count ops in
        (match out with
        | Some path ->
            let oc = open_out_bin path in
            output_bytes oc c.Cosy.Compound.buf;
            close_out oc;
            Fmt.epr "wrote %s (%d ops, %d bytes)@." path
              c.Cosy.Compound.op_count (Cosy.Compound.size c)
        | None -> ());
        c
    | None, Some path -> read_compound path
    | None, None ->
        Fmt.failwith "opt: need a COMPOUND file or --demo loop|coalesce|fuse"
  in
  let ops, slot_count = Cosy.Compound.decode compound in
  Fmt.pr "original (%d ops, %d slots):@." (Array.length ops) slot_count;
  Array.iteri (fun i op -> Fmt.pr "  %3d  %a@." i Op.pp_op op) ops;
  match Core.Verify.Checker.verify_compound ~shared_size compound with
  | Core.Verify.Checker.Rejected why ->
      Fmt.pr "verdict: rejected (%s) — runs on the dynamic path unoptimized@."
        why;
      exit 1
  | Core.Verify.Checker.Verified { ops = n; loops } ->
      Fmt.pr "verdict: verified (%d ops, %d counted loops)@." n
        (List.length loops);
      let plan = Core.Opt.Plan.compile ~shared_size ~loops ops ~slot_count in
      Fmt.pr "optimized:@.%a" Core.Opt.Plan.pp plan

(* --- cmdliner wiring --------------------------------------------------- *)

let workload_arg =
  let doc = "Workload to run: " ^ String.concat ", " Named_workload.names in
  Arg.(value & opt string "postmark" & info [ "w"; "workload" ] ~doc)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~doc:"Output file (default: stdout)")

let policy_arg =
  Arg.(
    value & opt string "log"
    & info [ "policy" ] ~doc:"Violation policy: kill, deny, log")

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"AUTOMATON.sfi")

let learn_cmd =
  Cmd.v
    (Cmd.info "learn"
       ~doc:"Record a workload and emit its syscall-flow automaton")
    Term.(const learn $ workload_arg $ out_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Enforce a learned automaton over a workload run")
    Term.(const check $ file_arg $ workload_arg $ policy_arg)

let compound_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"COMPOUND.cosy")

let demo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "demo" ] ~doc:"Generate a sample compound: loop, coalesce, fuse")

let shared_size_arg =
  Arg.(
    value & opt int 65536
    & info [ "shared-size" ] ~doc:"Shared-buffer bound for verification")

let opt_cmd =
  Cmd.v
    (Cmd.info "opt"
       ~doc:"Print the kopt optimized program next to the original compound")
    Term.(const opt $ compound_arg $ demo_arg $ out_arg $ shared_size_arg)

let cmd =
  Cmd.group
    (Cmd.info "kverify_tool"
       ~doc:"Learn and enforce syscall-flow automatons for simulated workloads")
    [ learn_cmd; check_cmd; opt_cmd ]

let () = exit (Cmd.eval cmd)
