(* User-level syscall dispatch.  Every call is a typed [Syscall.req]
   pushed through one generic [invoke]: the single choke point all four
   entry paths funnel through —

     Plain     the synchronous wrappers below: cross the boundary
               (charging entry/exit), run the in-kernel service routine,
               copy arguments and results across (charging per-byte
               costs), bump the syscall count, report a trace record;
     Ring      a drained kring entry: already in kernel mode, no
               crossing or copy charges (the batch pays those), but the
               call still counts, traces and lands in the histograms;
     Compound  a Cosy op: bare service dispatch, the compound's own
               bookkeeping wraps it.

   Interposition (kverify's syscall-flow gate) therefore happens in
   exactly one place, whichever way a request reaches the kernel.  The
   per-call functions below are thin builders over [invoke].

   These are the "expensive" calls whose overhead the paper's both
   techniques — consolidation (§2.2) and Cosy (§2.3) — exist to avoid;
   the kring subsystem batches many [Syscall.req]s through a single
   crossing using the same [service] routine. *)

let enter sys =
  let k = Systable.kernel sys in
  (* the libc stub, argument marshalling and errno handling run in user
     mode before and after the trap *)
  Ksim.Kernel.charge_user k (Ksim.Kernel.cost k).Ksim.Cost_model.user_stub;
  Ksim.Kernel.enter_kernel k;
  (Ksim.Kernel.current k).Ksim.Kproc.syscalls <-
    (Ksim.Kernel.current k).Ksim.Kproc.syscalls + 1

let exit sys = Ksim.Kernel.exit_kernel (Systable.kernel sys)

let path_bytes = Syscall.path_bytes

(* The in-kernel half of every syscall: map a typed request to its
   service routine.  Precondition: kernel mode.  No boundary or copy
   accounting happens here — [invoke] (one crossing per plain call) and
   Kring.enter (one crossing per batch) layer that on differently. *)
let service sys (req : Syscall.req) : Syscall.reply =
  let open Syscall in
  let ok_int = Result.map (fun n -> R_int n) in
  let ok_unit = Result.map (fun () -> R_unit) in
  match req with
  | Open { path; flags } -> ok_int (Sys_file.service_open sys ~path ~flags)
  | Close { fd } -> ok_unit (Sys_file.service_close sys ~fd)
  | Read { fd; len } ->
      Result.map (fun b -> R_bytes b) (Sys_file.service_read sys ~fd ~len)
  | Write { fd; data } -> ok_int (Sys_file.service_write sys ~fd ~data)
  | Pread { fd; off; len } ->
      Result.map (fun b -> R_bytes b) (Sys_file.service_pread sys ~fd ~off ~len)
  | Pwrite { fd; off; data } ->
      ok_int (Sys_file.service_pwrite sys ~fd ~off ~data)
  | Lseek { fd; off; whence } ->
      ok_int (Sys_file.service_lseek sys ~fd ~off ~whence)
  | Stat { path } ->
      Result.map (fun st -> R_stat st) (Sys_file.service_stat sys ~path)
  | Fstat { fd } ->
      Result.map (fun st -> R_stat st) (Sys_file.service_fstat sys ~fd)
  | Readdir { path } ->
      Result.map (fun es -> R_dirents es) (Sys_file.service_readdir sys ~path)
  | Mkdir { path } -> ok_int (Sys_file.service_mkdir sys ~path)
  | Unlink { path } -> ok_unit (Sys_file.service_unlink sys ~path)
  | Rename { src; dst } -> ok_unit (Sys_file.service_rename sys ~src ~dst)
  | Fsync { fd } -> ok_unit (Sys_file.service_fsync sys ~fd)
  | Getpid -> Ok (R_int (Sys_file.service_getpid sys))
  | Readdirplus { path } ->
      Result.map
        (fun es -> R_dirents_stats es)
        (Consolidated.service_readdirplus sys ~path)
  | Open_read_close { path; maxlen } ->
      Result.map
        (fun b -> R_bytes b)
        (Consolidated.service_open_read_close sys ~path ~maxlen)
  | Open_write_close { path; data; flags } ->
      ok_int (Consolidated.service_open_write_close sys ~path ~data ~flags)
  | Sendfile { fd; off; len } ->
      ok_int (Consolidated.service_sendfile sys ~fd ~off ~len)
  | Open_fstat { path; flags } ->
      Result.map
        (fun (fd, stat) -> R_fd_stat { fd; stat })
        (Consolidated.service_open_fstat sys ~path ~flags)
  | Socket -> Ok (R_int (Sys_net.service_socket sys))
  | Bind { sock; port } -> ok_unit (Sys_net.service_bind sys ~sock ~port)
  | Listen { sock; backlog } ->
      ok_unit (Sys_net.service_listen sys ~sock ~backlog)
  | Accept { sock } -> ok_int (Sys_net.service_accept sys ~sock)
  | Recv { sock; len } ->
      Result.map (fun b -> R_bytes b) (Sys_net.service_recv sys ~sock ~len)
  | Send { sock; data } -> ok_int (Sys_net.service_send sys ~sock ~data)
  | Epoll_create -> Ok (R_int (Sys_net.service_epoll_create sys))
  | Epoll_ctl { ep; sock; add; mask; cookie } ->
      ok_unit (Sys_net.service_epoll_ctl sys ~ep ~sock ~add ~mask ~cookie)
  | Epoll_wait { ep; max } ->
      Result.map
        (fun ready -> R_ready ready)
        (Sys_net.service_epoll_wait sys ~ep ~max)
  | Accept_recv { sock; len } ->
      Result.map
        (fun (fd, data) -> R_fd_bytes { fd; data })
        (Sys_net.service_accept_recv sys ~sock ~len)
  | Recv_send { sock; len; data } ->
      Result.map
        (fun (n, received) -> R_int_bytes { n; data = received })
        (Sys_net.service_recv_send sys ~sock ~len ~data)
  | Sendfile_sock { sock; fd; off; len } ->
      ok_int (Sys_net.service_sendfile_sock sys ~sock ~fd ~off ~len)

(* How a request reached the dispatcher; decides which boundary/copy
   protocol [invoke] layers around [service]. *)
type origin =
  | Plain       (* synchronous wrapper: full boundary round trip *)
  | Ring        (* drained kring entry: already in kernel mode *)
  | Compound    (* Cosy op: bare service, compound does the accounting *)

(* Raised when the admission gate returns [Gate_kill]: the syscall-flow
   automaton saw a forbidden transition under the Kill policy.  On the
   Plain path the offender is already dead when this escapes; kring and
   Cosy catch it and kill the offender themselves, watchdog-style. *)
exception Flow_violation of { pid : int; sysno : Sysno.t }

(* Consult the admission gate (if any).  Precondition: kernel mode, so
   any cycles the gate charges land as system time.  The [None] branch
   is the entire cost of a disabled verifier. *)
let gate_decide sys sysno =
  match Systable.gate sys with
  | None -> Systable.Gate_allow
  | Some g ->
      let k = Systable.kernel sys in
      g ~pid:(Ksim.Kernel.current k).Ksim.Kproc.pid ~sysno

(* The single dispatch choke point. *)
let invoke ?(origin = Plain) sys (req : Syscall.req) : Syscall.reply =
  match origin with
  | Compound -> (
      (* the compound already crossed; per-op spans/accounting are the
         caller's.  Only the gate interposes before the service routine. *)
      let sysno = Syscall.sysno_of_req req in
      match gate_decide sys sysno with
      | Systable.Gate_allow -> service sys req
      | Systable.Gate_deny e -> Error e
      | Systable.Gate_kill ->
          let k = Systable.kernel sys in
          raise
            (Flow_violation
               { pid = (Ksim.Kernel.current k).Ksim.Kproc.pid; sysno }))
  | Ring ->
      (* a drained ring entry: no crossing, no copy charges — the batch
         accounts those — but the syscall still counts, traces, and
         lands in the latency histogram *)
      let k = Systable.kernel sys in
      let sysno = Syscall.sysno_of_req req in
      let t0 = Ksim.Kernel.now k in
      let perf = Ksim.Kernel.perf k in
      let pid = (Ksim.Kernel.current k).Ksim.Kproc.pid in
      let span =
        Kperf.span_begin perf ~pid ~cat:"syscall"
          ~name:(Sysno.to_string sysno) ()
      in
      (Ksim.Kernel.current k).Ksim.Kproc.syscalls <-
        (Ksim.Kernel.current k).Ksim.Kproc.syscalls + 1;
      let reply =
        match gate_decide sys sysno with
        | Systable.Gate_allow -> service sys req
        | Systable.Gate_deny e -> Error e
        | Systable.Gate_kill ->
            (* the ring's enter loop owns the kernel stay; let it unwind
               exactly like a watchdog expiry *)
            Kperf.span_end perf ~pid span;
            raise (Flow_violation { pid; sysno })
      in
      Systable.record sys ~sysno ~arg:(Syscall.arg_of_req req)
        ~bytes_in:0 ~bytes_out:0
        ~ok:(Result.is_ok reply);
      Systable.observe_latency sys ~sysno ~cycles:(Ksim.Kernel.now k - t0);
      Kperf.span_end perf ~pid span;
      reply
  | Plain ->
      (* the generic synchronous path: one request, one round trip *)
      let k = Systable.kernel sys in
      let sysno = Syscall.sysno_of_req req in
      let t0 = Ksim.Kernel.now k in
      let perf = Ksim.Kernel.perf k in
      let pid = (Ksim.Kernel.current k).Ksim.Kproc.pid in
      (* the span covers the whole round trip, entry trap to exit, so its
         self time in a flamegraph is exactly the boundary-crossing tax
         the paper's techniques exist to amortize *)
      let span =
        Kperf.span_begin perf ~pid ~cat:"syscall"
          ~name:(Sysno.to_string sysno) ()
      in
      enter sys;
      let denied =
        match gate_decide sys sysno with
        | Systable.Gate_allow -> None
        | Systable.Gate_deny e -> Some e
        | Systable.Gate_kill ->
            (* account the boundary exit, then kill — the same order the
               Cosy watchdog uses.  Kernel.reap is Scheduler.kill unless
               a kcrash reaper is installed, in which case the
               offender's resources are reaped too. *)
            let offender = Ksim.Kernel.current k in
            exit sys;
            Ksim.Kernel.reap k offender ~reason:"flow-gate";
            Kperf.span_end perf ~pid span;
            raise (Flow_violation { pid; sysno })
      in
      (* Injected boundary faults, consulted once the gate has allowed
         the request but before any work happens.

         EINTR restart: a signal lands during the entry path; like
         ERESTARTSYS, the kernel returns to user mode and the libc stub
         transparently re-issues the call — a full exit/enter round
         trip charged per restart (retry.eintr_restarts).  A plan
         hammering the site eventually exhausts the restart budget and
         the interruption surfaces as a clean [Error EINTR].

         Spurious EAGAIN: the wakeup raced the readiness check.  Only
         injected on [Recv]/[Accept] — the calls whose contract already
         includes would-block — so callers' existing retry loops absorb
         it (retry.eagain_injected).  Like EINTR it has a budget: after
         8 injections in a row the next such call goes through, so a
         plan hammering the site slows the caller down but cannot stop
         it. *)
      let denied =
        match denied with
        | Some _ -> denied
        | None ->
            let fa = Systable.fault sys in
            let rec restart n =
              if not (Kfault.fire fa (Systable.eintr_site sys)) then None
              else begin
                Systable.count_eintr_restart sys;
                Kperf.instant perf ~pid ~cat:"retry" ~name:"eintr_restart" ();
                exit sys;
                enter sys;
                if n + 1 >= 8 then Some Kvfs.Vtypes.EINTR
                else restart (n + 1)
              end
            in
            let eintr = restart 0 in
            if eintr <> None then eintr
            else begin
              match req with
              | (Syscall.Recv _ | Syscall.Accept _) when Systable.inject_eagain sys ->
                  Some Kvfs.Vtypes.EAGAIN
              | _ -> None
            end
      in
      let reply =
        match denied with
        | Some e -> Error e   (* rejected before argument copy-in *)
        | None -> (
            match service sys req with
            | r -> r
            | exception e -> (
                exit sys;
                Kperf.span_end perf ~pid span;
                match e with
                | Ksim.Fault.Fault _ when Ksim.Kernel.has_reaper k ->
                    (* oops containment: a kernel-mode memory fault that
                       would have been a panic kills and reaps only the
                       offender; the caller sees a contained Oops
                       instead of the raw fault *)
                    let offender = Ksim.Kernel.current k in
                    Ksim.Kernel.reap k offender
                      ~reason:
                        (Printf.sprintf "fault in %s" (Sysno.to_string sysno));
                    raise (Ksim.Kernel.Oops { pid; reason = "memory fault" })
                | _ -> raise e))
      in
      let bin =
        match denied with Some _ -> 0 | None -> Syscall.req_copy_bytes req
      and bout = Syscall.reply_copy_bytes reply in
      if bin > 0 then Ksim.Kernel.charge_copy_from_user k bin;
      if bout > 0 then Ksim.Kernel.charge_copy_to_user k bout;
      Systable.record sys ~sysno ~arg:(Syscall.arg_of_req req) ~bytes_in:bin
        ~bytes_out:bout
        ~ok:(Result.is_ok reply);
      exit sys;
      Systable.observe_latency sys ~sysno ~cycles:(Ksim.Kernel.now k - t0);
      Kperf.span_end perf ~pid span;
      reply

(* --- reply extractors --------------------------------------------------- *)

(* The builders preserve the historical per-call result types; a shape
   mismatch would mean [service] broke its own contract. *)
let int_ok = function
  | Ok (Syscall.R_int n) -> Ok n
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_int"

let unit_ok = function
  | Ok Syscall.R_unit -> Ok ()
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_unit"

let bytes_ok = function
  | Ok (Syscall.R_bytes b) -> Ok b
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_bytes"

let stat_ok = function
  | Ok (Syscall.R_stat st) -> Ok st
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_stat"

let dirents_ok = function
  | Ok (Syscall.R_dirents es) -> Ok es
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_dirents"

let dirents_stats_ok = function
  | Ok (Syscall.R_dirents_stats es) -> Ok es
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_dirents_stats"

let fd_stat_ok = function
  | Ok (Syscall.R_fd_stat { fd; stat }) -> Ok (fd, stat)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_fd_stat"

let ready_ok = function
  | Ok (Syscall.R_ready r) -> Ok r
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_ready"

let fd_bytes_ok = function
  | Ok (Syscall.R_fd_bytes { fd; data }) -> Ok (fd, data)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_fd_bytes"

let int_bytes_ok = function
  | Ok (Syscall.R_int_bytes { n; data }) -> Ok (n, data)
  | Error e -> Error e
  | Ok _ -> invalid_arg "Usyscall: expected R_int_bytes"

(* --- thin per-call builders --------------------------------------------- *)

let sys_open sys ~path ~flags = int_ok (invoke sys (Syscall.Open { path; flags }))
let sys_close sys ~fd = unit_ok (invoke sys (Syscall.Close { fd }))
let sys_read sys ~fd ~len = bytes_ok (invoke sys (Syscall.Read { fd; len }))
let sys_write sys ~fd ~data = int_ok (invoke sys (Syscall.Write { fd; data }))

let sys_pread sys ~fd ~off ~len =
  bytes_ok (invoke sys (Syscall.Pread { fd; off; len }))

let sys_pwrite sys ~fd ~off ~data =
  int_ok (invoke sys (Syscall.Pwrite { fd; off; data }))

let sys_lseek sys ~fd ~off ~whence =
  int_ok (invoke sys (Syscall.Lseek { fd; off; whence }))

let sys_stat sys ~path = stat_ok (invoke sys (Syscall.Stat { path }))
let sys_fstat sys ~fd = stat_ok (invoke sys (Syscall.Fstat { fd }))
let sys_readdir sys ~path = dirents_ok (invoke sys (Syscall.Readdir { path }))
let sys_mkdir sys ~path = int_ok (invoke sys (Syscall.Mkdir { path }))
let sys_unlink sys ~path = unit_ok (invoke sys (Syscall.Unlink { path }))
let sys_rename sys ~src ~dst = unit_ok (invoke sys (Syscall.Rename { src; dst }))
let sys_fsync sys ~fd = unit_ok (invoke sys (Syscall.Fsync { fd }))

(* getpid cannot fail; routed through [invoke] like everything else so
   it shows up in the latency histograms. *)
let sys_getpid sys =
  match int_ok (invoke sys Syscall.Getpid) with
  | Ok pid -> pid
  | Error _ -> assert false

(* --- consolidated wrappers (E1/E2) ------------------------------------- *)

let sys_readdirplus sys ~path =
  dirents_stats_ok (invoke sys (Syscall.Readdirplus { path }))

let sys_open_read_close sys ~path ~maxlen =
  bytes_ok (invoke sys (Syscall.Open_read_close { path; maxlen }))

let sys_open_write_close sys ~path ~data ~flags =
  int_ok (invoke sys (Syscall.Open_write_close { path; data; flags }))

let sys_sendfile sys ~fd ~off ~len =
  int_ok (invoke sys (Syscall.Sendfile { fd; off; len }))

let sys_open_fstat sys ~path ~flags =
  fd_stat_ok (invoke sys (Syscall.Open_fstat { path; flags }))

(* --- socket wrappers (knet) --------------------------------------------- *)

let sys_socket sys =
  match int_ok (invoke sys Syscall.Socket) with
  | Ok fd -> fd
  | Error _ -> assert false

let sys_bind sys ~sock ~port = unit_ok (invoke sys (Syscall.Bind { sock; port }))

let sys_listen sys ~sock ~backlog =
  unit_ok (invoke sys (Syscall.Listen { sock; backlog }))

let sys_accept sys ~sock = int_ok (invoke sys (Syscall.Accept { sock }))
let sys_recv sys ~sock ~len = bytes_ok (invoke sys (Syscall.Recv { sock; len }))
let sys_send sys ~sock ~data = int_ok (invoke sys (Syscall.Send { sock; data }))

let sys_epoll_create sys =
  match int_ok (invoke sys Syscall.Epoll_create) with
  | Ok fd -> fd
  | Error _ -> assert false

let sys_epoll_ctl sys ~ep ~sock ~add ~mask ~cookie =
  unit_ok (invoke sys (Syscall.Epoll_ctl { ep; sock; add; mask; cookie }))

let sys_epoll_wait sys ~ep ~max =
  ready_ok (invoke sys (Syscall.Epoll_wait { ep; max }))

let sys_accept_recv sys ~sock ~len =
  fd_bytes_ok (invoke sys (Syscall.Accept_recv { sock; len }))

let sys_recv_send sys ~sock ~len ~data =
  int_bytes_ok (invoke sys (Syscall.Recv_send { sock; len; data }))

let sys_sendfile_sock sys ~sock ~fd ~off ~len =
  int_ok (invoke sys (Syscall.Sendfile_sock { sock; fd; off; len }))

let dirents_bytes = Syscall.dirents_bytes
