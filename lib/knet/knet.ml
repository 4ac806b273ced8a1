(* knet: deterministic, cycle-accounted sockets for the simulated kernel.

   The server half (listeners, backlogs, bounded per-connection buffers,
   level-triggered epoll) is real data structures; the client half is a
   discrete-event traffic generator on a global min-heap keyed by
   (due-cycle, insertion-seq), so a run is a deterministic function of
   the installed traffic specs and the cost model.  Blocking epoll_wait
   advances the simulated clock as I/O wait — the process is asleep on a
   wait queue until the "NIC" delivers something interesting. *)

module Kernel = Ksim.Kernel
module Kproc = Ksim.Kproc
module Instrument = Ksim.Instrument
module V = Kvfs.Vtypes

let handle_base = 0x4000_0000
let ep_in = 1
let ep_out = 2
let ep_hup = 4

module Event_heap = Event_heap
module Itbl = Hashtbl.Make (Int)
module Iset = Set.Make (Int)

(* A byte FIFO over one reusable buffer: the live bytes are
   [buf.[off .. off+len)].  A push is one blit, a take one [Bytes.sub];
   the queue compacts before it grows, and callers bound its length by
   rcvbuf/sndbuf. *)
module Bq = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create () = { buf = Bytes.empty; off = 0; len = 0 }
  let length q = q.len

  (* Make room for [n] bytes at the tail; returns where they go. *)
  let reserve q n =
    let need = q.len + n in
    let cap = Bytes.length q.buf in
    if q.off + need > cap then begin
      let buf =
        if need > cap then Bytes.create (max need (max 64 (2 * cap)))
        else q.buf
      in
      Bytes.blit q.buf q.off buf 0 q.len;
      q.buf <- buf;
      q.off <- 0
    end;
    q.len <- need;
    q.off + need - n

  let push_string q s pos n =
    let dst = reserve q n in
    Bytes.blit_string s pos q.buf dst n

  let push_bytes q b pos n =
    let dst = reserve q n in
    Bytes.blit b pos q.buf dst n

  let take q n =
    let n = min n q.len in
    let b = Bytes.sub q.buf q.off n in
    q.off <- q.off + n;
    q.len <- q.len - n;
    if q.len = 0 then q.off <- 0;
    b
end

(* One simulated client driving one connection. *)
type client = {
  cl_seq : int;                      (* arrival index within its port *)
  cl_port : int;
  cl_total : int;                    (* requests it will issue *)
  cl_pipeline : int;
  cl_think : int;
  cl_req_of : int -> string;
  mutable cl_conn : int;             (* conn sock id; -1 before connect *)
  mutable cl_sent : int;
  mutable cl_done : int;
  cl_hdr : Bytes.t;                  (* 8-byte response length accumulator *)
  mutable cl_hdr_got : int;
  mutable cl_body_left : int;
  cl_sent_at : int Queue.t;          (* client-side send instants, FIFO *)
  cl_span : int Queue.t;             (* kperf async span ids, same FIFO *)
  mutable cl_rx : Bytes.t list;      (* drained chunks, newest first,
                                        digested once at the end *)
  mutable cl_finished : bool;
  mutable cl_fails : int;            (* consecutive failures, drives backoff *)
  mutable cl_txq : string list;      (* unacked tx data, strict FIFO: a
                                        retransmitted frame keeps its place
                                        at the head, so later pipelined
                                        frames cannot overtake it *)
}

type conn = {
  cn_id : int;
  cn_port : int;
  cn_recv : Bq.t;                    (* client -> server *)
  cn_send : Bq.t;                    (* server -> client, awaiting drain *)
  mutable cn_peer_closed : bool;
  mutable cn_closed : bool;
  mutable cn_accepted : bool;
  mutable cn_drain_scheduled : bool;
  mutable cn_client : client option;
}

type listener = {
  l_id : int;
  l_port : int;
  mutable l_backlog : int;
  l_queue : int Queue.t;             (* conn ids awaiting accept *)
  mutable l_drops : int;
}

type sock =
  | S_new of { mutable sn_port : int }
  | S_listen of listener
  | S_conn of conn

type ep = {
  ep_interest : (int * int) Itbl.t;  (* sock -> mask, cookie *)
  mutable ep_order : Iset.t;         (* the same socks, ascending *)
}

type ev =
  | Ev_connect of client
  | Ev_deliver of client
      (* a delivery tick: the payload lives in [cl_txq], not the event,
         so per-connection byte order survives retransmit delays *)
  | Ev_drain of int

type port_state = {
  ps_conns : int;
  mutable ps_completed : int;
  mutable ps_responses : int;
  mutable ps_drops : int;
  mutable ps_retrans : int;          (* wire frames lost and re-sent *)
  mutable ps_failed : int;           (* connections abandoned *)
  ps_digests : string array;         (* per-connection, arrival order *)
}

type t = {
  kn : Kernel.t;
  rcvbuf : int;
  sndbuf : int;
  socks : sock Itbl.t;
  eps : ep Itbl.t;
  ports : int Itbl.t;                (* port -> listener sock id *)
  heap : ev Event_heap.t;
  mutable next_id : int;
  traffic : port_state Itbl.t;
  (* kstats handles *)
  stats : Kstats.t;
  st_conns : Kstats.counter;
  st_accepts : Kstats.counter;
  st_drops : Kstats.counter;
  st_sendq_full : Kstats.counter;
  st_rcvq_full : Kstats.counter;
  st_bytes_in : Kstats.counter;
  st_bytes_out : Kstats.counter;
  st_epoll_waits : Kstats.counter;
  st_epoll_wakeups : Kstats.counter;
  st_sendfile_bytes : Kstats.counter;
  st_stage_hw : Kstats.gauge;
  st_latency : Kstats.hist;
  st_redials : Kstats.counter;
  st_retransmits : Kstats.counter;
  st_backoff_cycles : Kstats.counter;
  fault : Kfault.t;
  site_wire_drop : Kfault.site;
  site_recv_short : Kfault.site;
}

let create ?(rcvbuf = 16 * 1024) ?(sndbuf = 32 * 1024) kn =
  let stats = Kernel.stats kn in
  {
    kn;
    rcvbuf;
    sndbuf;
    socks = Itbl.create 64;
    eps = Itbl.create 4;
    ports = Itbl.create 4;
    heap = Event_heap.create ~dummy:(Ev_drain (-1));
    next_id = 1;
    traffic = Itbl.create 4;
    stats;
    st_conns = Kstats.counter stats "net.conns";
    st_accepts = Kstats.counter stats "net.accepts";
    st_drops = Kstats.counter stats "net.backlog_drops";
    st_sendq_full = Kstats.counter stats "net.sendq_full";
    st_rcvq_full = Kstats.counter stats "net.rcvq_full";
    st_bytes_in = Kstats.counter stats "net.bytes_in";
    st_bytes_out = Kstats.counter stats "net.bytes_out";
    st_epoll_waits = Kstats.counter stats "net.epoll.waits";
    st_epoll_wakeups = Kstats.counter stats "net.epoll.wakeups";
    st_sendfile_bytes = Kstats.counter stats "net.sendfile.bytes";
    st_stage_hw = Kstats.gauge stats "net.sendfile.stage_high_water";
    st_latency = Kstats.histogram stats "net.request.latency";
    st_redials = Kstats.counter stats "retry.net_redials";
    st_retransmits = Kstats.counter stats "retry.net_retransmits";
    st_backoff_cycles = Kstats.counter stats "retry.net_backoff_cycles";
    fault = Kernel.fault kn;
    site_wire_drop = Kfault.register (Kernel.fault kn) "net.wire_drop";
    site_recv_short = Kfault.register (Kernel.fault kn) "net.recv_short";
  }

let kernel t = t.kn
let now t = Kernel.now t.kn
let charge t = Kernel.charge_kernel t.kn (Kernel.cost t.kn).net_op
let wire t = (Kernel.cost t.kn).wire_latency

let push_ev t due ev = Event_heap.push t.heap ~due:(max due (now t)) ev

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* ---------- client side (runs at event-processing time) ---------- *)

let port_state t port = Itbl.find_opt t.traffic port

let schedule_request t cl ~req ~send_at =
  Queue.push send_at cl.cl_sent_at;
  (* a request outlives any single syscall — send, kernel-side service,
     drain, client rx can each happen in different kernel stays — so it
     is an *async* span, keyed by id on its own Perfetto track *)
  Queue.push
    (Kperf.async_begin (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"net"
       ~name:"request" ())
    cl.cl_span;
  cl.cl_txq <- cl.cl_txq @ [ cl.cl_req_of req ];
  push_ev t (send_at + wire t) (Ev_deliver cl)

let response_done t cl =
  cl.cl_done <- cl.cl_done + 1;
  (match Queue.take_opt cl.cl_sent_at with
  | Some sent -> Kstats.observe t.stats t.st_latency (now t - sent)
  | None -> ());
  (match Queue.take_opt cl.cl_span with
  | Some span -> Kperf.async_end (Kernel.perf t.kn) ~arg:cl.cl_port span
  | None -> ());
  (match port_state t cl.cl_port with
  | Some ps -> ps.ps_responses <- ps.ps_responses + 1
  | None -> ());
  if cl.cl_done >= cl.cl_total then begin
    cl.cl_finished <- true;
    (match port_state t cl.cl_port with
    | Some ps ->
        let stream =
          match cl.cl_rx with
          | [ b ] -> b
          | chunks -> Bytes.concat Bytes.empty (List.rev chunks)
        in
        ps.ps_digests.(cl.cl_seq) <- Digest.to_hex (Digest.bytes stream);
        ps.ps_completed <- ps.ps_completed + 1
    | None -> ());
    cl.cl_rx <- [];
    (* FIN rides the final ack: the server sees EOF once it drains. *)
    match Itbl.find_opt t.socks cl.cl_conn with
    | Some (S_conn c) -> c.cn_peer_closed <- true
    | _ -> ()
  end
  else if cl.cl_sent < cl.cl_total then begin
    let send_at = now t + cl.cl_think in
    schedule_request t cl ~req:cl.cl_sent ~send_at;
    cl.cl_sent <- cl.cl_sent + 1
  end

(* Parse drained bytes against the 8-byte-length + body framing. *)
let client_rx t cl (b : Bytes.t) =
  cl.cl_rx <- b :: cl.cl_rx;
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len && not cl.cl_finished do
    if cl.cl_body_left > 0 then begin
      let n = min cl.cl_body_left (len - !pos) in
      cl.cl_body_left <- cl.cl_body_left - n;
      pos := !pos + n;
      if cl.cl_body_left = 0 then response_done t cl
    end
    else begin
      let n = min (8 - cl.cl_hdr_got) (len - !pos) in
      Bytes.blit b !pos cl.cl_hdr cl.cl_hdr_got n;
      cl.cl_hdr_got <- cl.cl_hdr_got + n;
      pos := !pos + n;
      if cl.cl_hdr_got = 8 then begin
        cl.cl_body_left <- Int64.to_int (Bytes.get_int64_le cl.cl_hdr 0);
        cl.cl_hdr_got <- 0;
        if cl.cl_body_left = 0 then response_done t cl
      end
    end
  done

(* ---------- NIC-side injection ---------- *)

type connect_result = C_ok of int * int | C_drop of int | C_refused

let connect_attempt t ~port ~client =
  match Itbl.find_opt t.ports port with
  | None -> C_refused
  | Some lid -> (
      match Itbl.find_opt t.socks lid with
      | Some (S_listen l) when l.l_backlog > 0 ->
          if Queue.length l.l_queue >= l.l_backlog then begin
            l.l_drops <- l.l_drops + 1;
            Kstats.incr t.st_drops;
            (match port_state t port with
            | Some ps -> ps.ps_drops <- ps.ps_drops + 1
            | None -> ());
            Instrument.emit ~obj:port ~value:l.l_drops
              ~kind:Instrument.Backlog_drop ~file:"knet.ml"
              ~line:0 ();
            Kperf.instant (Kernel.perf t.kn) ~arg:port ~cat:"net"
              ~name:"backlog_drop" ();
            C_drop lid
          end
          else begin
            let id = fresh_id t in
            let c =
              {
                cn_id = id;
                cn_port = port;
                cn_recv = Bq.create ();
                cn_send = Bq.create ();
                cn_peer_closed = false;
                cn_closed = false;
                cn_accepted = false;
                cn_drain_scheduled = false;
                cn_client = client;
              }
            in
            Itbl.replace t.socks id (S_conn c);
            Queue.push id l.l_queue;
            Kstats.incr t.st_conns;
            C_ok (lid, id)
          end
      | _ -> C_refused)

let inject_connect t ~port =
  match connect_attempt t ~port ~client:None with
  | C_ok (_, id) -> Some id
  | C_drop _ | C_refused -> None

let deliver_bytes t c s pos len =
  let space = t.rcvbuf - Bq.length c.cn_recv in
  let n = min space len in
  if n < len then Kstats.incr t.st_rcvq_full;
  if n > 0 then begin
    Bq.push_string c.cn_recv s pos n;
    Kstats.add t.st_bytes_in n
  end;
  n

let inject_bytes t ~sock s =
  match Itbl.find_opt t.socks sock with
  | Some (S_conn c) when not c.cn_closed ->
      deliver_bytes t c s 0 (String.length s)
  | _ -> 0

let inject_fin t ~sock =
  match Itbl.find_opt t.socks sock with
  | Some (S_conn c) -> c.cn_peer_closed <- true
  | _ -> ()

(* ---------- event processing ---------- *)

(* Exponential backoff for a client's consecutive failures: the first
   retry keeps the historical 4*wire delay, each further consecutive
   failure doubles it (capped at 32*wire), and any success resets the
   streak.  The extra wait is pure simulated elapsed time — the client
   is asleep, not burning CPU — counted in retry.net_backoff_cycles. *)
let backoff_delay t cl =
  let base = 4 * wire t in
  let d = base * (1 lsl min cl.cl_fails 3) in
  if d > base then Kstats.add t.st_backoff_cycles (d - base);
  cl.cl_fails <- cl.cl_fails + 1;
  d

(* Consecutive wire drops a client retransmits through before it gives
   up on the connection, as tcp_retries2 bounds a TCP sender. *)
let max_retransmits = 15

(* The client abandons its connection: its unsent frames and open
   request spans go, the server sees HUP, and the port counts a failed
   connection (its digest slot stays empty). *)
let abandon t cl c =
  cl.cl_finished <- true;
  cl.cl_txq <- [];
  Queue.iter
    (fun span -> Kperf.async_end (Kernel.perf t.kn) ~arg:cl.cl_port span)
    cl.cl_span;
  Queue.clear cl.cl_span;
  (match port_state t cl.cl_port with
  | Some ps -> ps.ps_failed <- ps.ps_failed + 1
  | None -> ());
  c.cn_peer_closed <- true

(* Returns the sock ids whose readiness the event may have changed. *)
let process_event t = function
  | Ev_connect cl -> (
      match connect_attempt t ~port:cl.cl_port ~client:(Some cl) with
      | C_ok (lid, id) ->
          cl.cl_fails <- 0;
          cl.cl_conn <- id;
          let burst = min cl.cl_pipeline cl.cl_total in
          for k = 0 to burst - 1 do
            (* tiny per-request skew keeps deliveries ordered *)
            schedule_request t cl ~req:k ~send_at:(now t + (k * 16))
          done;
          cl.cl_sent <- burst;
          [ lid; id ]
      | C_drop lid ->
          (* client backs off and redials *)
          Kstats.incr t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          [ lid ]
      | C_refused ->
          Kstats.incr t.st_redials;
          push_ev t (now t + backoff_delay t cl) (Ev_connect cl);
          [])
  | Ev_deliver cl -> (
      match (Itbl.find_opt t.socks cl.cl_conn, cl.cl_txq) with
      | Some (S_conn c), data :: rest when not c.cn_closed ->
          if Kfault.fire t.fault t.site_wire_drop then begin
            (* the frame vanishes on the wire; the client's retransmit
               timer re-sends the whole payload after a backoff.  The
               data stays at the head of the tx queue, so pipelined
               frames behind it wait their turn, as TCP's sequence
               numbers would make them *)
            if cl.cl_fails >= max_retransmits then abandon t cl c
            else begin
              Kstats.incr t.st_retransmits;
              (match port_state t cl.cl_port with
              | Some ps -> ps.ps_retrans <- ps.ps_retrans + 1
              | None -> ());
              Kperf.instant (Kernel.perf t.kn) ~arg:cl.cl_port ~cat:"retry"
                ~name:"net.retransmit" ();
              push_ev t (now t + backoff_delay t cl) (Ev_deliver cl)
            end;
            [ c.cn_id ]
          end
          else begin
            cl.cl_fails <- 0;
            let len = String.length data in
            let n = deliver_bytes t c data 0 len in
            if n < len then begin
              cl.cl_txq <- String.sub data n (len - n) :: rest;
              push_ev t (now t + (max 1 (wire t / 4))) (Ev_deliver cl)
            end
            else cl.cl_txq <- rest;
            [ c.cn_id ]
          end
      | _ -> [])
  | Ev_drain id -> (
      match Itbl.find_opt t.socks id with
      | Some (S_conn c) ->
          c.cn_drain_scheduled <- false;
          let n = Bq.length c.cn_send in
          if n > 0 then begin
            let b = Bq.take c.cn_send n in
            Kstats.add t.st_bytes_out n;
            match c.cn_client with
            | Some cl when not cl.cl_finished -> client_rx t cl b
            | _ -> ()
          end;
          [ id ]
      | None | Some (S_new _) | Some (S_listen _) -> [])

(* Process every event due at or before the current clock. *)
let pump t =
  while Event_heap.top_due t.heap <= now t do
    ignore (process_event t (Event_heap.pop t.heap))
  done

(* Advance the clock (I/O wait) to the next event and process it. *)
let advance_and_process t =
  if Event_heap.is_empty t.heap then []
  else begin
    let due = Event_heap.top_due t.heap in
    if due > now t then Kernel.charge_io t.kn (due - now t);
    process_event t (Event_heap.pop t.heap)
  end

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    ignore (advance_and_process t);
    true
  end

(* ---------- socket operations ---------- *)

let socket t =
  charge t;
  let id = fresh_id t in
  Itbl.replace t.socks id (S_new { sn_port = 0 });
  id

let bind t ~sock ~port =
  charge t;
  match Itbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if port <= 0 then Error V.EINVAL
      else if Itbl.mem t.ports port then Error V.EADDRINUSE
      else begin
        s.sn_port <- port;
        Itbl.replace t.ports port sock;
        Ok ()
      end
  | Some (S_listen _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let listen t ~sock ~backlog =
  charge t;
  match Itbl.find_opt t.socks sock with
  | Some (S_new s) ->
      if s.sn_port = 0 then Error V.EINVAL
      else if backlog <= 0 then Error V.EINVAL
      else begin
        Itbl.replace t.socks sock
          (S_listen
             {
               l_id = sock;
               l_port = s.sn_port;
               l_backlog = backlog;
               l_queue = Queue.create ();
               l_drops = 0;
             });
        Ok ()
      end
  | Some (S_listen l) ->
      l.l_backlog <- backlog;
      Ok ()
  | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let accept t ~sock =
  charge t;
  match Itbl.find_opt t.socks sock with
  | Some (S_listen l) -> (
      match Queue.take_opt l.l_queue with
      | Some id ->
          (match Itbl.find_opt t.socks id with
          | Some (S_conn c) -> c.cn_accepted <- true
          | _ -> ());
          Kstats.incr t.st_accepts;
          Kperf.instant (Kernel.perf t.kn) ~arg:id ~cat:"net" ~name:"accept"
            ();
          Ok id
      | None -> Error V.EAGAIN)
  | Some (S_new _) | Some (S_conn _) -> Error V.EINVAL
  | None -> Error V.EBADF

let conn_of t sock =
  match Itbl.find_opt t.socks sock with
  | Some (S_conn c) -> Ok c
  | Some (S_new _) | Some (S_listen _) -> Error V.ENOTSOCK
  | None -> Error V.EBADF

let recv t ~sock ~len =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> Bytes.empty)
  | Ok c ->
      let avail = Bq.length c.cn_recv in
      if avail = 0 then
        if c.cn_peer_closed then Ok Bytes.empty else Error V.EAGAIN
      else begin
        let want = min (max 0 len) avail in
        (* injected short read: the NIC handed over only part of the
           queued bytes; callers loop on recv, so streams stay intact *)
        let want =
          if want > 1 && Kfault.fire t.fault t.site_recv_short then
            (want + 1) / 2
          else want
        in
        Ok (Bq.take c.cn_recv want)
      end

let schedule_drain t c =
  if (not c.cn_drain_scheduled) && Bq.length c.cn_send > 0 then begin
    c.cn_drain_scheduled <- true;
    push_ev t (now t + wire t) (Ev_drain c.cn_id)
  end

let send_space t ~sock =
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> Ok (t.sndbuf - Bq.length c.cn_send)

let append_out t c data =
  let len = Bytes.length data in
  let space = t.sndbuf - Bq.length c.cn_send in
  let n = min space len in
  if n = 0 && len > 0 then begin
    Kstats.incr t.st_sendq_full;
    (* a completely full send queue is its own condition (ENOBUFS),
       distinct from the would-block EAGAIN of an empty recv queue *)
    Error V.ENOBUFS
  end
  else begin
    if n < len then Kstats.incr t.st_sendq_full;
    Bq.push_bytes c.cn_send data 0 n;
    schedule_drain t c;
    Ok n
  end

let send t ~sock ~data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c -> append_out t c data

(* Zero-copy transmit: the kernel-owned payload goes straight into the
   send queue instead of through a user buffer, so no copy_{from,to}_user
   bytes are charged (the DMA cost is the caller's, mirroring
   Consolidated.service_sendfile).  The stage gauge takes each
   transmit's size, so its peak is the largest one. *)
let send_kernel t ~sock data =
  charge t;
  match conn_of t sock with
  | Error _ as e -> e |> Result.map (fun _ -> 0)
  | Ok c ->
      Kstats.set t.st_stage_hw (Bytes.length data);
      let r = append_out t c data in
      (match r with
      | Ok n -> Kstats.add t.st_sendfile_bytes n
      | Error _ -> ());
      r

let ep_remove e sock =
  Itbl.remove e.ep_interest sock;
  e.ep_order <- Iset.remove sock e.ep_order

let close t ~sock =
  charge t;
  Itbl.iter (fun _ e -> ep_remove e sock) t.eps;
  if Itbl.mem t.eps sock then Itbl.remove t.eps sock
  else
    match Itbl.find_opt t.socks sock with
    | None -> ()
    | Some (S_new s) ->
        if s.sn_port <> 0 && Itbl.find_opt t.ports s.sn_port = Some sock
        then Itbl.remove t.ports s.sn_port;
        Itbl.remove t.socks sock
    | Some (S_listen l) ->
        if Itbl.find_opt t.ports l.l_port = Some sock then
          Itbl.remove t.ports l.l_port;
        Queue.iter
          (fun id ->
            match Itbl.find_opt t.socks id with
            | Some (S_conn c) ->
                c.cn_closed <- true;
                Itbl.remove t.socks id
            | _ -> ())
          l.l_queue;
        Itbl.remove t.socks sock
    | Some (S_conn c) ->
        c.cn_closed <- true;
        Itbl.remove t.socks sock

(* ---------- epoll ---------- *)

let epoll_create t =
  charge t;
  let id = fresh_id t in
  Itbl.replace t.eps id { ep_interest = Itbl.create 16; ep_order = Iset.empty };
  id

let epoll_ctl t ~ep ~sock ~op =
  charge t;
  match Itbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e -> (
      match op with
      | `Add (mask, cookie) ->
          if not (Itbl.mem t.socks sock) then Error V.EBADF
          else begin
            Itbl.replace e.ep_interest sock (mask, cookie);
            e.ep_order <- Iset.add sock e.ep_order;
            Ok ()
          end
      | `Del ->
          ep_remove e sock;
          Ok ())

let ready_mask t id =
  match Itbl.find_opt t.socks id with
  | Some (S_listen l) -> if Queue.length l.l_queue > 0 then ep_in else 0
  | Some (S_conn c) ->
      let m = ref 0 in
      if Bq.length c.cn_recv > 0 || c.cn_peer_closed then m := !m lor ep_in;
      if c.cn_peer_closed then m := !m lor ep_hup;
      if t.sndbuf - Bq.length c.cn_send > 0 then m := !m lor ep_out;
      !m
  | Some (S_new _) | None -> 0

(* HUP is delivered whether requested or not, as in epoll(7). *)
let effective_ready t id mask = ready_mask t id land (mask lor ep_hup)

exception Scan_full

(* The first [max] ready registrations, in ascending socket id. *)
let scan t e max =
  let acc = ref [] and n = ref 0 in
  (try
     Iset.iter
       (fun id ->
         if !n >= max then raise_notrace Scan_full;
         let mask, cookie = Itbl.find e.ep_interest id in
         let r = effective_ready t id mask in
         if r <> 0 then begin
           acc := (cookie, r) :: !acc;
           incr n
         end)
       e.ep_order
   with Scan_full -> ());
  List.rev !acc

let epoll_wait t ~ep ~max =
  charge t;
  Kstats.incr t.st_epoll_waits;
  match Itbl.find_opt t.eps ep with
  | None -> Error V.EBADF
  | Some e ->
      pump t;
      let r = scan t e max in
      if r <> [] || Event_heap.is_empty t.heap then Ok r
      else begin
        (* Nothing ready: sleep on the wait queue until the traffic
           generator wakes us.  Only sockets an event touched are
           re-checked, so a 10k-interest set is not rescanned per
           event. *)
        let p = Kernel.current t.kn in
        let saved = p.Kproc.state in
        p.Kproc.state <- Kproc.Blocked;
        let woken = ref false in
        while (not !woken) && not (Event_heap.is_empty t.heap) do
          let touched = advance_and_process t in
          if
            List.exists
              (fun id ->
                match Itbl.find_opt e.ep_interest id with
                | Some (mask, _) -> effective_ready t id mask <> 0
                | None -> false)
              touched
          then woken := true
        done;
        p.Kproc.state <- saved;
        Kstats.incr t.st_epoll_wakeups;
        Ok (scan t e max)
      end

(* ---------- traffic generation ---------- *)

module Traffic = struct
  type spec = {
    port : int;
    conns : int;
    requests_per_conn : int;
    pipeline : int;
    start : int;
    spacing : int;
    think : int;
    req_of : conn:int -> req:int -> string;
  }

  let default =
    {
      port = 80;
      conns = 100;
      requests_per_conn = 2;
      pipeline = 2;
      start = 1_000;
      spacing = 2_000;
      think = 0;
      req_of = (fun ~conn ~req -> Printf.sprintf "GET %d:%d\n" conn req);
    }

  let install t spec =
    if spec.conns <= 0 || spec.requests_per_conn <= 0 then
      invalid_arg "Knet.Traffic.install";
    let ps =
      {
        ps_conns = spec.conns;
        ps_completed = 0;
        ps_responses = 0;
        ps_drops = 0;
        ps_retrans = 0;
        ps_failed = 0;
        ps_digests = Array.make spec.conns "";
      }
    in
    Itbl.replace t.traffic spec.port ps;
    for i = 0 to spec.conns - 1 do
      let cl =
        {
          cl_seq = i;
          cl_port = spec.port;
          cl_total = spec.requests_per_conn;
          cl_pipeline = max 1 spec.pipeline;
          cl_think = spec.think;
          cl_req_of = (fun req -> spec.req_of ~conn:i ~req);
          cl_conn = -1;
          cl_sent = 0;
          cl_done = 0;
          cl_hdr = Bytes.create 8;
          cl_hdr_got = 0;
          cl_body_left = 0;
          cl_sent_at = Queue.create ();
          cl_span = Queue.create ();
          cl_txq = [];
          cl_rx = [];
          cl_finished = false;
          cl_fails = 0;
        }
      in
      push_ev t (now t + spec.start + (i * spec.spacing)) (Ev_connect cl)
    done

  let completed t ~port =
    match port_state t port with Some ps -> ps.ps_completed | None -> 0

  let responses t ~port =
    match port_state t port with Some ps -> ps.ps_responses | None -> 0

  let drops t ~port =
    match port_state t port with Some ps -> ps.ps_drops | None -> 0

  let retransmits t ~port =
    match port_state t port with Some ps -> ps.ps_retrans | None -> 0

  let failed t ~port =
    match port_state t port with Some ps -> ps.ps_failed | None -> 0

  let digest t ~port =
    match port_state t port with
    | Some ps ->
        Digest.to_hex
          (Digest.string (String.concat "," (Array.to_list ps.ps_digests)))
    | None -> Digest.to_hex (Digest.string "")
end
