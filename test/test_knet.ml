(* knet: the simulated socket layer — listening sockets and backlogs,
   bounded per-connection buffers, level-triggered epoll readiness,
   blocking waits that ride the traffic-generator event heap, and the
   syscall-boundary plumbing (fd mapping, sendfile-to-socket). *)

let errno = Alcotest.testable Kvfs.Vtypes.pp_errno ( = )

let find_counter stats name =
  match Kstats.find stats name with Some (Kstats.Counter_v v) -> v | _ -> 0

(* A fresh stack on a bare kernel, small buffers so backpressure is easy
   to reach. *)
let bare ?rcvbuf ?sndbuf () =
  let kernel = Ksim.Kernel.create () in
  Kstats.set_enabled (Ksim.Kernel.stats kernel) true;
  (kernel, Knet.create ?rcvbuf ?sndbuf kernel)

let listener ?(port = 80) ?(backlog = 4) net =
  let s = Knet.socket net in
  (match Knet.bind net ~sock:s ~port with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bind: %s" (Kvfs.Vtypes.errno_to_string e));
  (match Knet.listen net ~sock:s ~backlog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "listen: %s" (Kvfs.Vtypes.errno_to_string e));
  s

(* --- sockets and connections -------------------------------------------- *)

let test_accept_recv_send () =
  let _kernel, net = bare () in
  let s = listener net in
  Alcotest.(check (result int errno))
    "accept on empty backlog" (Error Kvfs.Vtypes.EAGAIN)
    (Knet.accept net ~sock:s);
  let cl = Option.get (Knet.inject_connect net ~port:80) in
  let conn =
    match Knet.accept net ~sock:s with
    | Ok c -> c
    | Error e -> Alcotest.failf "accept: %s" (Kvfs.Vtypes.errno_to_string e)
  in
  Alcotest.(check int) "accept pops the injected connection" cl conn;
  Alcotest.(check (result bytes errno))
    "recv before any bytes" (Error Kvfs.Vtypes.EAGAIN)
    (Knet.recv net ~sock:conn ~len:64);
  Alcotest.(check int) "inject fits" 5 (Knet.inject_bytes net ~sock:conn "hello");
  Alcotest.(check (result bytes errno))
    "recv returns the bytes"
    (Ok (Bytes.of_string "hello"))
    (Knet.recv net ~sock:conn ~len:64);
  (match Knet.send net ~sock:conn ~data:(Bytes.of_string "world") with
  | Ok 5 -> ()
  | _ -> Alcotest.fail "send should queue all 5 bytes");
  Knet.inject_fin net ~sock:conn;
  Alcotest.(check (result bytes errno))
    "recv after FIN and drain is end-of-stream" (Ok Bytes.empty)
    (Knet.recv net ~sock:conn ~len:64)

let test_bind_errors () =
  let _kernel, net = bare () in
  let _s = listener ~port:80 net in
  let s2 = Knet.socket net in
  Alcotest.(check (result unit errno))
    "port already taken" (Error Kvfs.Vtypes.EADDRINUSE)
    (Knet.bind net ~sock:s2 ~port:80);
  Alcotest.(check (result unit errno))
    "bind on a bad id" (Error Kvfs.Vtypes.EBADF)
    (Knet.bind net ~sock:9999 ~port:81)

let test_backlog_drops () =
  let kernel, net = bare () in
  let _s = listener ~port:80 ~backlog:2 net in
  Alcotest.(check bool) "first fits" true
    (Knet.inject_connect net ~port:80 <> None);
  Alcotest.(check bool) "second fits" true
    (Knet.inject_connect net ~port:80 <> None);
  Alcotest.(check (option int)) "third overflows the backlog" None
    (Knet.inject_connect net ~port:80);
  Alcotest.(check int) "drop counted" 1
    (find_counter (Ksim.Kernel.stats kernel) "net.backlog_drops")

let test_bounded_sendq () =
  let kernel, net = bare ~sndbuf:8 () in
  let s = listener net in
  let _cl = Knet.inject_connect net ~port:80 in
  let conn = Result.get_ok (Knet.accept net ~sock:s) in
  (match Knet.send net ~sock:conn ~data:(Bytes.make 16 'x') with
  | Ok 8 -> ()
  | Ok n -> Alcotest.failf "partial send took %d, want 8" n
  | Error e -> Alcotest.failf "send: %s" (Kvfs.Vtypes.errno_to_string e));
  Alcotest.(check (result int errno))
    "full queue would block" (Error Kvfs.Vtypes.ENOBUFS)
    (Knet.send net ~sock:conn ~data:(Bytes.of_string "y"));
  Alcotest.(check bool) "sendq_full counted" true
    (find_counter (Ksim.Kernel.stats kernel) "net.sendq_full" >= 1);
  Alcotest.(check (result int errno)) "no space left" (Ok 0)
    (Knet.send_space net ~sock:conn)

(* --- epoll --------------------------------------------------------------- *)

let test_epoll_level_triggered () =
  let _kernel, net = bare () in
  let s = listener net in
  let ep = Knet.epoll_create net in
  (match
     Knet.epoll_ctl net ~ep ~sock:s ~op:(`Add (Knet.ep_in, 1000))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "epoll_ctl: %s" (Kvfs.Vtypes.errno_to_string e));
  let cl = Option.get (Knet.inject_connect net ~port:80) in
  Alcotest.(check (result (list (pair int int)) errno))
    "pending accept is readable"
    (Ok [ (1000, Knet.ep_in) ])
    (Knet.epoll_wait net ~ep ~max:8);
  Alcotest.(check (result (list (pair int int)) errno))
    "level-triggered: still readable until consumed"
    (Ok [ (1000, Knet.ep_in) ])
    (Knet.epoll_wait net ~ep ~max:8);
  let conn = Result.get_ok (Knet.accept net ~sock:s) in
  Alcotest.(check int) "same connection" cl conn;
  Alcotest.(check (result (list (pair int int)) errno))
    "consumed: nothing ready, heap empty" (Ok [])
    (Knet.epoll_wait net ~ep ~max:8);
  ignore (Knet.inject_bytes net ~sock:conn "r");
  (match
     Knet.epoll_ctl net ~ep ~sock:conn
       ~op:(`Add (Knet.ep_in lor Knet.ep_out, 2000))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "epoll_ctl: %s" (Kvfs.Vtypes.errno_to_string e));
  (match Knet.epoll_wait net ~ep ~max:8 with
  | Ok [ (2000, m) ] ->
      Alcotest.(check bool) "readable" true (m land Knet.ep_in <> 0);
      Alcotest.(check bool) "writable" true (m land Knet.ep_out <> 0)
  | Ok l -> Alcotest.failf "want one ready socket, got %d" (List.length l)
  | Error e -> Alcotest.failf "epoll_wait: %s" (Kvfs.Vtypes.errno_to_string e));
  Knet.inject_fin net ~sock:conn;
  ignore (Result.get_ok (Knet.recv net ~sock:conn ~len:8));
  (match Knet.epoll_wait net ~ep ~max:8 with
  | Ok [ (2000, m) ] ->
      Alcotest.(check bool) "HUP delivered even when unrequested" true
        (m land Knet.ep_hup <> 0)
  | Ok _ | Error _ -> Alcotest.fail "want HUP readiness")

let test_epoll_wait_blocks_until_traffic () =
  let t = Core.boot_with Core.Config.default in
  Kstats.set_enabled (Core.stats t) true;
  let kernel = Core.kernel t in
  let net = Core.net t in
  let s = listener ~port:80 net in
  let ep = Knet.epoll_create net in
  ignore (Knet.epoll_ctl net ~ep ~sock:s ~op:(`Add (Knet.ep_in, 1)));
  Knet.Traffic.install net
    { Knet.Traffic.default with port = 80; conns = 1; requests_per_conn = 1;
      start = 50_000 };
  let before = Ksim.Kernel.now kernel in
  (match Knet.epoll_wait net ~ep ~max:4 with
  | Ok [ (1, _) ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "want the listener ready after blocking");
  Alcotest.(check bool) "clock advanced to the connect event" true
    (Ksim.Kernel.now kernel - before >= 50_000);
  Alcotest.(check bool) "wakeup counted" true
    (find_counter (Core.stats t) "net.epoll.wakeups" >= 1)

(* --- the syscall boundary ------------------------------------------------ *)

(* Kproc.lookup_fd maps a socket fd to handle_base + id; recover the raw
   id for NIC-side injection the way the service routines do. *)
let sock_id sys fd =
  match
    Ksim.Kproc.lookup_fd (Ksim.Kernel.current (Ksyscall.Systable.kernel sys)) fd
  with
  | Some h when h >= Knet.handle_base -> h - Knet.handle_base
  | _ -> Alcotest.fail "fd is not a socket"

let test_syscall_fd_mapping () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let net = Core.net t in
  let s = Core.Syscall.sys_socket sys in
  Alcotest.(check (result unit errno)) "bind via syscall" (Ok ())
    (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  Alcotest.(check (result unit errno)) "listen via syscall" (Ok ())
    (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  (* a VFS fd is not a socket, and a socket is not a VFS fd *)
  let file =
    Core.ok (Core.Syscall.sys_open sys ~path:"/f" ~flags:Core.o_create)
  in
  Alcotest.(check (result bytes errno))
    "recv on a file" (Error Kvfs.Vtypes.ENOTSOCK)
    (Core.Syscall.sys_recv sys ~sock:file ~len:8);
  Alcotest.(check (result bytes errno))
    "read on a socket" (Error Kvfs.Vtypes.EBADF)
    (Core.Syscall.sys_read sys ~fd:s ~len:8);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  ignore (Knet.inject_bytes net ~sock:(sock_id sys conn) "ping");
  Alcotest.(check (result bytes errno))
    "recv via syscall"
    (Ok (Bytes.of_string "ping"))
    (Core.Syscall.sys_recv sys ~sock:conn ~len:64)

let test_close_releases_socket () =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let net = Core.net t in
  let s = Core.Syscall.sys_socket sys in
  ignore (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  ignore (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  Alcotest.(check (result unit errno)) "close the connection" (Ok ())
    (Core.Syscall.sys_close sys ~fd:conn);
  Alcotest.(check (result bytes errno))
    "closed fd is gone" (Error Kvfs.Vtypes.EBADF)
    (Core.Syscall.sys_recv sys ~sock:conn ~len:8);
  Alcotest.(check (result unit errno)) "close the listener" (Ok ())
    (Core.Syscall.sys_close sys ~fd:s);
  Alcotest.(check (option int)) "port released: connects are refused" None
    (Knet.inject_connect net ~port:80)

let test_sendfile_sock_zero_copy () =
  let t = Core.boot_with Core.Config.default in
  Kstats.set_enabled (Core.stats t) true;
  let sys = Core.sys t in
  let net = Core.net t in
  let kernel = Core.kernel t in
  let body = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
  ignore
    (Core.ok
       (Core.Syscall.sys_open_write_close sys ~path:"/doc" ~data:body
          ~flags:Core.o_create));
  let s = Core.Syscall.sys_socket sys in
  ignore (Core.Syscall.sys_bind sys ~sock:s ~port:80);
  ignore (Core.Syscall.sys_listen sys ~sock:s ~backlog:4);
  ignore (Knet.inject_connect net ~port:80);
  let conn = Core.ok (Core.Syscall.sys_accept sys ~sock:s) in
  let fd = Core.ok (Core.Syscall.sys_open sys ~path:"/doc" ~flags:Core.o_rdonly) in
  let tu0 = Ksim.Kernel.bytes_to_user kernel in
  let fu0 = Ksim.Kernel.bytes_from_user kernel in
  Alcotest.(check (result int errno))
    "sendfile queues the whole document" (Ok 1000)
    (Core.Syscall.sys_sendfile_sock sys ~sock:conn ~fd ~off:0 ~len:2000);
  Alcotest.(check int) "no payload bytes copied to user space" 0
    (Ksim.Kernel.bytes_to_user kernel - tu0);
  Alcotest.(check int) "no payload bytes copied from user space" 0
    (Ksim.Kernel.bytes_from_user kernel - fu0);
  Alcotest.(check int) "counted as sendfile bytes" 1000
    (find_counter (Core.stats t) "net.sendfile.bytes");
  (* the payload really is queued: exactly 1000 bytes of send space gone *)
  Alcotest.(check (result int errno)) "payload occupies the send queue"
    (Ok 31768)
    (Knet.send_space net ~sock:(sock_id sys conn))

(* --- determinism --------------------------------------------------------- *)

let serve_once variant =
  let t = Core.boot_with Core.Config.default in
  let sys = Core.sys t in
  let kernel = Core.kernel t in
  let config =
    { Workloads.Webserver.net_default_config with variant; conns = 25 }
  in
  Workloads.Webserver.net_setup ~config sys;
  let r = Workloads.Webserver.run_net ~config sys in
  ( r.Workloads.Webserver.n_digest,
    r.Workloads.Webserver.n_completed,
    Ksim.Kernel.now kernel,
    Ksim.Kernel.crossings kernel )

let test_deterministic_replay () =
  List.iter
    (fun variant ->
      let d1, c1, now1, x1 = serve_once variant in
      let d2, c2, now2, x2 = serve_once variant in
      Alcotest.(check int) "all connections served" 25 c1;
      Alcotest.(check string) "same digest" d1 d2;
      Alcotest.(check int) "same completions" c1 c2;
      Alcotest.(check int) "same final clock" now1 now2;
      Alcotest.(check int) "same crossings" x1 x2)
    [ Workloads.Webserver.Net_naive; Workloads.Webserver.Net_ring ]

(* --- properties -------------------------------------------------------- *)

(* The event heap against a list model: every pop returns the earliest
   pending push by due cycle, ties in push order (a stable sort by
   (due, seq)), and [top_due] always names the due of the next pop. *)
let qcheck_event_heap_order =
  QCheck.Test.make ~name:"pops in stable (due, seq) order" ~count:300
    QCheck.(list_of_size Gen.(int_bound 200) (option (int_bound 20)))
    (fun ops ->
      let h = Knet.Event_heap.create ~dummy:(-1) in
      let pending = ref [] and seq = ref 0 in
      let pop_one () =
        let sorted =
          List.stable_sort (fun (d1, _) (d2, _) -> compare d1 d2)
            (List.rev !pending)
        in
        match sorted with
        | [] -> Knet.Event_heap.is_empty h && Knet.Event_heap.top_due h = max_int
        | (due, s) :: _ ->
            pending := List.filter (fun (_, s') -> s' <> s) !pending;
            Knet.Event_heap.top_due h = due && Knet.Event_heap.pop h = s
      in
      (* as many pops again as there were ops: drains the heap, then
         checks it reads empty *)
      List.for_all
        (function
          | Some due ->
              Knet.Event_heap.push h ~due !seq;
              pending := (due, !seq) :: !pending;
              incr seq;
              true
          | None -> pop_one ())
        (ops @ List.map (fun _ -> None) ops))

(* The receive queue is a FIFO whatever the interleaving of injects and
   reads, across its compactions and growth: the bytes read back are
   exactly the bytes that fit, in order. *)
let qcheck_recv_stream =
  QCheck.Test.make ~name:"recv returns injected bytes in order" ~count:200
    QCheck.(list (pair bool (int_range 1 3000)))
    (fun ops ->
      let _kernel, net = bare ~rcvbuf:4096 () in
      let _s = listener net in
      let conn = Option.get (Knet.inject_connect net ~port:80) in
      let sent = Buffer.create 1024 and got = Buffer.create 1024 in
      let next = ref 0 in
      List.iter
        (fun (inject, n) ->
          if inject then begin
            let s =
              String.init n (fun i -> Char.chr (((!next + i) * 31) land 255))
            in
            next := !next + n;
            let fit = Knet.inject_bytes net ~sock:conn s in
            Buffer.add_string sent (String.sub s 0 fit)
          end
          else
            match Knet.recv net ~sock:conn ~len:n with
            | Ok b -> Buffer.add_bytes got b
            | Error _ -> ())
        ops;
      (match Knet.recv net ~sock:conn ~len:max_int with
      | Ok b -> Buffer.add_bytes got b
      | Error _ -> ());
      Buffer.contents sent = Buffer.contents got)

(* What the pre-ordered-set epoll did: fold the interest table into a
   list, sort it by socket id, and take the first [max] ready entries.
   It is the reference for the ordered scan. *)
let reference_scan interest ready max =
  let entries =
    Hashtbl.fold
      (fun id (mask, cookie) acc -> (id, mask, cookie) :: acc)
      interest []
  in
  let entries = List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries in
  let rec collect n acc = function
    | [] -> List.rev acc
    | _ when n >= max -> List.rev acc
    | (id, mask, cookie) :: rest ->
        let r = ready id land (mask lor Knet.ep_hup) in
        if r <> 0 then collect (n + 1) ((cookie, r) :: acc) rest
        else collect n acc rest
  in
  collect 0 [] entries

type ep_op =
  | Connect
  | Accept
  | Add of int * int * int  (* socket index, mask choice, cookie *)
  | Del of int
  | Close of int            (* closes a connection, never the listener *)
  | Inject of int * int
  | Recv of int * int
  | Fin of int
  | Wait of int

let gen_ep_op =
  QCheck.Gen.(
    frequency
      [
        (3, return Connect);
        (1, return Accept);
        (4, map3 (fun i m c -> Add (i, m, c)) nat (int_bound 3) (int_bound 999));
        (1, map (fun i -> Del i) nat);
        (1, map (fun i -> Close i) nat);
        (2, map2 (fun i n -> Inject (i, n)) nat (int_range 1 8));
        (2, map2 (fun i n -> Recv (i, n)) nat (int_range 1 8));
        (1, map (fun i -> Fin i) nat);
        (3, map (fun m -> Wait m) (int_bound 6));
      ])

let pp_ep_op = function
  | Connect -> "connect"
  | Accept -> "accept"
  | Add (i, m, c) -> Printf.sprintf "add(%d,%d,%d)" i m c
  | Del i -> Printf.sprintf "del %d" i
  | Close i -> Printf.sprintf "close %d" i
  | Inject (i, n) -> Printf.sprintf "inject(%d,%d)" i n
  | Recv (i, n) -> Printf.sprintf "recv(%d,%d)" i n
  | Fin i -> Printf.sprintf "fin %d" i
  | Wait m -> Printf.sprintf "wait %d" m

(* Random registrations, closes and readiness changes on one epoll
   instance.  A model tracks each socket's readiness; every wait must
   return what the reference scan over the model's interest table
   returns: the first [max] ready sockets, ascending by id. *)
let qcheck_epoll_order =
  QCheck.Test.make ~name:"epoll_wait returns the first max ready by id"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_ep_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_ep_op))
    (fun ops ->
      let _kernel, net = bare () in
      let backlog = 64 in
      let lsn = listener ~backlog net in
      let ep = Knet.epoll_create net in
      (* model: queued accepts, and per connection its queued bytes,
         FIN and whether it is closed *)
      let queued = ref 0 in
      let conns = ref [||] in
      let bytes = Hashtbl.create 16 and fin = Hashtbl.create 16 in
      let closed = Hashtbl.create 16 in
      let interest = Hashtbl.create 16 in
      let sock_at i =
        let n = Array.length !conns in
        if i mod (n + 1) = n then lsn else !conns.(i mod (n + 1))
      in
      let conn_at i =
        let n = Array.length !conns in
        if n = 0 then None else Some !conns.(i mod n)
      in
      let ready id =
        if id = lsn then if !queued > 0 then Knet.ep_in else 0
        else if Hashtbl.mem closed id then 0
        else
          let f = Hashtbl.mem fin id in
          (if Hashtbl.find bytes id > 0 || f then Knet.ep_in else 0)
          lor (if f then Knet.ep_hup else 0)
          lor Knet.ep_out
      in
      let masks = [| 0; Knet.ep_in; Knet.ep_out; Knet.ep_in lor Knet.ep_out |] in
      let check max =
        Knet.epoll_wait net ~ep ~max = Ok (reference_scan interest ready max)
      in
      List.for_all
        (fun op ->
          match op with
          | Connect ->
              (match Knet.inject_connect net ~port:80 with
              | Some id ->
                  incr queued;
                  conns := Array.append !conns [| id |];
                  Hashtbl.replace bytes id 0
              | None -> ());
              !queued <= backlog
          | Accept ->
              let r = Knet.accept net ~sock:lsn in
              if !queued > 0 then (decr queued; Result.is_ok r)
              else r = Error Kvfs.Vtypes.EAGAIN
          | Add (i, m, cookie) ->
              let sock = sock_at i in
              let r =
                Knet.epoll_ctl net ~ep ~sock ~op:(`Add (masks.(m), cookie))
              in
              if Hashtbl.mem closed sock then r = Error Kvfs.Vtypes.EBADF
              else begin
                Hashtbl.replace interest sock (masks.(m), cookie);
                r = Ok ()
              end
          | Del i ->
              let sock = sock_at i in
              Hashtbl.remove interest sock;
              Knet.epoll_ctl net ~ep ~sock ~op:`Del = Ok ()
          | Close i -> (
              match conn_at i with
              | None -> true
              | Some sock ->
                  Knet.close net ~sock;
                  Hashtbl.replace closed sock ();
                  Hashtbl.remove interest sock;
                  true)
          | Inject (i, n) -> (
              match conn_at i with
              | None -> true
              | Some sock ->
                  let fit = Knet.inject_bytes net ~sock (String.make n 'x') in
                  if Hashtbl.mem closed sock then fit = 0
                  else begin
                    Hashtbl.replace bytes sock (Hashtbl.find bytes sock + fit);
                    fit = n
                  end)
          | Recv (i, n) -> (
              match conn_at i with
              | None -> true
              | Some sock ->
                  ignore (Knet.recv net ~sock ~len:n);
                  if not (Hashtbl.mem closed sock) then
                    Hashtbl.replace bytes sock
                      (Stdlib.max 0 (Hashtbl.find bytes sock - n));
                  true)
          | Fin i -> (
              match conn_at i with
              | None -> true
              | Some sock ->
                  Knet.inject_fin net ~sock;
                  if not (Hashtbl.mem closed sock) then
                    Hashtbl.replace fin sock ();
                  true)
          | Wait max -> check max)
        ops
      && check 1000)

let () =
  Alcotest.run "knet"
    [
      ( "sockets",
        [
          Alcotest.test_case "accept/recv/send/fin" `Quick test_accept_recv_send;
          Alcotest.test_case "bind errors" `Quick test_bind_errors;
          Alcotest.test_case "backlog drops" `Quick test_backlog_drops;
          Alcotest.test_case "bounded send queue" `Quick test_bounded_sendq;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "level-triggered readiness" `Quick
            test_epoll_level_triggered;
          Alcotest.test_case "blocking wait rides the event heap" `Quick
            test_epoll_wait_blocks_until_traffic;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "fd mapping and type errors" `Quick
            test_syscall_fd_mapping;
          Alcotest.test_case "close releases sockets and ports" `Quick
            test_close_releases_socket;
          Alcotest.test_case "sendfile-to-socket is zero-copy" `Quick
            test_sendfile_sock_zero_copy;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical runs replay bit-for-bit" `Quick
            test_deterministic_replay;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_event_heap_order;
          QCheck_alcotest.to_alcotest qcheck_recv_stream;
          QCheck_alcotest.to_alcotest qcheck_epoll_order;
        ] );
    ]
