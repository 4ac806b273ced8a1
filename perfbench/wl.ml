(* The four workloads.  Each repeat boots a fresh system, builds its
   initial state (timed as set-up), runs the measured phase on inputs
   generated beforehand, and checks every output against a reference
   that does not come from the path under test. *)

open Common

let no_repeat =
  {
    ops = 0; failed = 0; notes = []; broken = []; boot_s = 0.; setup_s = 0.;
    phase_s = 0.; phase_words = 0.; major_gcs = 0; sim_cycles = 0; lat = [||];
    lat_mean_cycles = 0.; recovery_cycles = 0; reboot_s = 0.; sim = [];
    fingerprint = "";
  }

let from_phase ~ops (ph : phase) =
  { no_repeat with
    ops;
    phase_s = ph.ph_s;
    phase_words = ph.ph_words;
    major_gcs = ph.ph_majors;
    sim_cycles = ph.ph_after.now - ph.ph_before.now;
    sim = layer_values ~ops ph.ph_before ph.ph_after }

(* ---- postmark and journal ---------------------------------------------- *)

(* The shadow model: each live file's contents as the chunks written to
   it, newest first (appending allocates one cons cell). *)
type shadow = (int, Bytes.t list) Hashtbl.t

let shadow_size chunks = List.fold_left (fun n c -> n + Bytes.length c) 0 chunks

(* [data] equals the chunks laid end to end. *)
let shadow_equal chunks data =
  let total = shadow_size chunks in
  Bytes.length data = total
  &&
  let rec go pos = function
    | [] -> true
    | c :: older ->
        let len = Bytes.length c in
        let pos = pos - len in
        let rec eq j = j >= len || (Bytes.get c j = Bytes.get data (pos + j) && eq (j + 1)) in
        eq 0 && go pos older
  in
  go total chunks

let is_int n = function Ok m -> m = n | Error _ -> false
let is_unit = function Ok () -> true | Error _ -> false

(* Words the shadow model allocated: the reference's cost, not the
   program's, so the measured phase leaves them out.  An int, so adding
   to it allocates nothing. *)
let shadow_words = ref 0

let shadow_done w0 = shadow_words := !shadow_words + int_of_float (Gc.minor_words () -. w0)

(* One PostMark operation through plain syscalls; [false] on an
   unexpected errno or data that disagrees with the shadow. *)
let fs_op sys (shadow : shadow) = function
  | Gen.Create { id; path; data } -> (
      let w0 = Gc.minor_words () in
      Hashtbl.replace shadow id [ data ];
      shadow_done w0;
      match sys_open sys ~path ~flags:Core.o_create with
      | Error _ -> false
      | Ok fd ->
          let w = sys_write sys ~fd ~data in
          is_int (Bytes.length data) w && is_unit (sys_close sys ~fd))
  | Gen.Delete { id; path } ->
      let w0 = Gc.minor_words () in
      Hashtbl.remove shadow id;
      shadow_done w0;
      is_unit (sys_unlink sys ~path)
  | Gen.Read { id; path } -> (
      match read_file sys path with
      | Ok data ->
          let w0 = Gc.minor_words () in
          let ok =
            match Hashtbl.find_opt shadow id with
            | Some chunks -> shadow_equal chunks data
            | None -> false
          in
          shadow_done w0;
          ok
      | Error _ -> false)
  | Gen.Append { id; path; data } -> (
      let w0 = Gc.minor_words () in
      (match Hashtbl.find_opt shadow id with
      | Some chunks -> Hashtbl.replace shadow id (data :: chunks)
      | None -> ());
      shadow_done w0;
      match sys_open sys ~path ~flags:Core.o_append with
      | Error _ -> false
      | Ok fd ->
          let w = sys_write sys ~fd ~data in
          is_int (Bytes.length data) w && is_unit (sys_close sys ~fd))

let sp_reboot = Span.intern "kcrash.reboot"
let sp_fsck = Span.intern "kvfs.fsck"

(* After the power loss: the rebooted tree must equal the shadow tree —
   the same names with the same sizes — and fsck of the replayed
   filesystem must be clean.  Contents are not compared: [Core] boots
   journalfs with its default metadata-only journal, whose replay
   rewrites file data as zeros of the logged length by design (contents
   are checked against the shadow on every read before the crash).
   Returns the mismatching files and the fsck complaints. *)
let check_recovered t (g : Gen.fs) (shadow : shadow) =
  let sys = Core.sys t in
  let expect =
    List.sort compare
      (Hashtbl.fold (fun id _ acc -> Printf.sprintf "pm%06d" id :: acc) shadow [])
  in
  let listed =
    match sys_readdir sys ~path:g.dir with
    | Ok ents ->
        List.sort compare
          (List.filter_map
             (fun d ->
               let n = d.Kvfs.Vtypes.d_name in
               if String.length n > 2 && String.sub n 0 2 = "pm" then Some n else None)
             ents)
    | Error _ -> []
  in
  let bad_names = if listed = expect then 0 else 1 in
  let bad_files =
    Hashtbl.fold
      (fun id chunks n ->
        match read_file sys (Printf.sprintf "%s/pm%06d" g.dir id) with
        | Ok data when Bytes.length data = shadow_size chunks -> n
        | _ -> n + 1)
      shadow 0
  in
  let j = Option.get (Core.journalfs t) in
  let k = Core.kernel t in
  let s = Span.enter k sp_fsck in
  let errs = Kvfs.Memfs.fsck (Kvfs.Journalfs.inner j) in
  Span.leave k s;
  (bad_names + bad_files, errs)

let run_fs ~journal (g : Gen.fs) =
  let cfg =
    if journal then
      { Core.Config.default with fs = Core.Journalfs;
        crash = Some Kcrash.default_config }
    else Core.Config.default
  in
  let c0 = cpu_s () in
  let t, boot_s = boot cfg in
  let sys = Core.sys t in
  let shadow : shadow = Hashtbl.create 1024 in
  let mkdir_bad = if is_unit (Result.map ignore (sys_mkdir sys ~path:g.dir)) then 0 else 1 in
  let setup_bad =
    Array.fold_left (fun n op -> if fs_op sys shadow op then n else n + 1) mkdir_bad g.pool
  in
  let setup_s = cpu_s () -. c0 in
  let k = Core.kernel t in
  let ntx = Array.length g.txs in
  let lat = Array.make ntx 0 in
  let failed = ref 0 in
  let ph =
    measure t (fun () ->
        shadow_words := 0;
        Array.iteri
          (fun i (a, b) ->
            let t0 = K.now k in
            let ok_a = fs_op sys shadow a in
            let ok_b = fs_op sys shadow b in
            lat.(i) <- K.now k - t0;
            if not (ok_a && ok_b) then incr failed)
          g.txs;
        float_of_int !shadow_words)
  in
  let r = from_phase ~ops:ntx ph in
  let notes =
    (if setup_bad > 0 then [ Printf.sprintf "%d set-up ops failed" setup_bad ] else [])
    @ if !failed > 0 then [ Printf.sprintf "%d transactions failed" !failed ] else []
  in
  let r =
    { r with boot_s; setup_s; lat; lat_mean_cycles = Stat.mean_int lat;
      failed = !failed + setup_bad; notes }
  in
  if not journal then
    { r with fingerprint = fingerprint ~lat [ t ] r.sim }
  else begin
    (* power loss: reboot from the persistent image alone *)
    let w0 = if !Span.enabled then Span.words () else 0 in
    let h0 = Span.now_ns () in
    let c1 = cpu_s () in
    let t' = Core.reboot t in
    let reboot_s = cpu_s () -. c1 in
    Span.add_closed (Core.kernel t') sp_reboot ~h0 ~w0;
    let recovery_cycles = K.now (Core.kernel t') in
    let replayed =
      match Kvfs.Journalfs.last_recover (Option.get (Core.journalfs t')) with
      | Some info -> info.Kvfs.Journalfs.rec_replayed
      | None -> 0
    in
    let bad, errs = check_recovered t' g shadow in
    let sim =
      r.sim
      @ [ ("kcrash.replayed_records", float_of_int replayed);
          ("kcrash.fsck_errors", float_of_int (List.length errs)) ]
    in
    let notes =
      r.notes
      @ (if bad > 0 then [ Printf.sprintf "%d files differ after reboot" bad ] else [])
      @ List.map (fun e -> "fsck: " ^ e) errs
    in
    { r with
      failed = min ntx (r.failed + bad + List.length errs);
      notes; sim; recovery_cycles; reboot_s;
      fingerprint =
        fingerprint ~lat [ t; t' ]
          (("recovery", float_of_int recovery_cycles) :: sim) }
  end

(* ---- web ----------------------------------------------------------------- *)

let sp_net_step = Span.intern "workloads.net_step"

(* Highest share of the measured phase the server may spend in
   epoll_wait for the phase to count as saturated. *)
let max_idle_share = 0.05

let run_web (g : Gen.web) =
  let c0 = cpu_s () in
  let t, boot_s = boot { Core.Config.default with optimize = true } in
  let sys = Core.sys t in
  let docs_cfg = g.cfg.docs in
  let setup_bad = ref 0 in
  if not (is_unit (Result.map ignore (sys_mkdir sys ~path:docs_cfg.dir))) then incr setup_bad;
  Array.iteri
    (fun i data ->
      match
        sys_open_write_close sys ~path:(Workloads.Webserver.doc_name docs_cfg i) ~data
          ~flags:Core.o_create
      with
      | Ok _ -> ()
      | Error _ -> incr setup_bad)
    g.docs;
  let setup_s = cpu_s () -. c0 in
  let config = { g.cfg with make_ring = Some (fun _ -> Core.ring t) } in
  let w = Workloads.Webserver.net_make ~config sys in
  let k = Core.kernel t in
  let ph =
    measure t (fun () ->
        let continue = ref true in
        while !continue do
          let s = Span.enter k sp_net_step in
          continue := Workloads.Webserver.net_step w;
          Span.leave k s
        done;
        0.)
  in
  let ops = config.conns * config.requests_per_conn in
  let r = from_phase ~ops ph in
  let knet = Ksyscall.Systable.net sys in
  let port = config.port in
  let served = Knet.Traffic.responses knet ~port in
  let drops = Knet.Traffic.drops knet ~port in
  let digest_ok = Knet.Traffic.digest knet ~port = g.digest in
  let failed =
    if digest_ok then max 0 (ops - served) + (drops * config.requests_per_conn)
    else ops
  in
  let count, sum =
    let c1, s1 = hist ph.ph_after "net.request.latency"
    and c0, s0 = hist ph.ph_before "net.request.latency" in
    (c1 - c0, s1 - s0)
  in
  let idle = List.assoc "knet.server_idle_share" r.sim in
  let notes =
    (if !setup_bad > 0 then [ Printf.sprintf "%d documents not written" !setup_bad ] else [])
    @ (if digest_ok then [] else [ "response digest differs from the reference" ])
    @ if served < ops then [ Printf.sprintf "%d responses missing" (ops - served) ] else []
  in
  let broken =
    (if drops > 0 then [ Printf.sprintf "%d connections refused at the backlog" drops ]
     else [])
    @
    if idle > max_idle_share then
      [ Printf.sprintf "server idle %.1f%% of the phase: not saturated" (100. *. idle) ]
    else []
  in
  let lat_mean = ratio sum count in
  { r with
    boot_s; setup_s; failed = min ops (failed + !setup_bad); notes; broken;
    lat_mean_cycles = lat_mean;
    fingerprint = fingerprint [ t ] (("digest_ok", if digest_ok then 1. else 0.) :: r.sim) }

(* ---- cosy_db ------------------------------------------------------------- *)

let sp_submit = Span.intern "cosy.submit"

(* The shared buffer at [soff] holds record [recno] of the shadow store. *)
let record_equal shared ~soff (store : Bytes.t) ~recno ~rs =
  let got = Cosy.Shared_buffer.read shared ~off:soff ~len:rs in
  let base = recno * rs in
  let rec eq j = j >= rs || (Bytes.get got j = Bytes.get store (base + j) && eq (j + 1)) in
  eq 0

let run_cosy (g : Gen.cosy) =
  let c0 = cpu_s () in
  let t, boot_s = boot { Core.Config.default with optimize = true } in
  let sys = Core.sys t in
  let rs = g.rec_size in
  let setup_bad = ref 0 in
  if not (is_unit (Result.map ignore (sys_mkdir sys ~path:"/db"))) then incr setup_bad;
  (match sys_open sys ~path:Gen.cosy_path ~flags:Core.o_create with
  | Ok fd when fd = g.fd ->
      Array.iter
        (fun data ->
          if not (is_int (Bytes.length data) (sys_write sys ~fd ~data)) then incr setup_bad)
        g.init_writes
  | Ok _ | Error _ -> incr setup_bad);
  let exec = Core.cosy ~shared_size:g.shared_size t in
  let setup_s = cpu_s () -. c0 in
  let shared = Cosy.Cosy_exec.shared exec in
  let store = g.store in
  Bytes.blit g.init 0 store 0 (Bytes.length store);
  let k = Core.kernel t in
  let nsub = Array.length g.subs in
  let lat = Array.make nsub 0 in
  let failed = ref 0 and ops = ref 0 in
  let check (sub : Gen.submission) slots =
    let ok = ref true and wi = ref 0 in
    Array.iter
      (function
        | Gen.P_read { slot; recno; soff } ->
            ok := !ok && slots.(slot) = rs && record_equal shared ~soff store ~recno ~rs
        | Gen.P_write { slot; recno; _ } ->
            ok := !ok && slots.(slot) = rs;
            Bytes.blit sub.data.(!wi) 0 store (recno * rs) rs;
            incr wi
        | Gen.P_scan { tot; first; count; soff } ->
            ok :=
              !ok && slots.(tot) = count * rs
              && record_equal shared ~soff store ~recno:(first + count - 1) ~rs)
      sub.prog.pops;
    !ok
  in
  let ph =
    measure t (fun () ->
        let check_words = ref 0. in
        Array.iteri
          (fun i (sub : Gen.submission) ->
            (* stage the updates' new bytes in the shared buffer *)
            let wi = ref 0 in
            Array.iter
              (function
                | Gen.P_write { soff; _ } ->
                    Cosy.Shared_buffer.write shared ~off:soff sub.data.(!wi);
                    incr wi
                | Gen.P_read _ | Gen.P_scan _ -> ())
              sub.prog.pops;
            let t0 = K.now k in
            let s = Span.enter k sp_submit in
            let slots =
              try Some (Cosy.Cosy_exec.submit exec sub.prog.compound) with _ -> None
            in
            Span.leave k s;
            lat.(i) <- K.now k - t0;
            ops := !ops + sub.prog.rec_ops;
            let w0 = Gc.minor_words () in
            (match slots with
            | Some slots when check sub slots -> ()
            | _ -> failed := !failed + sub.prog.rec_ops);
            check_words := !check_words +. (Gc.minor_words () -. w0))
          g.subs;
        !check_words)
  in
  let r = from_phase ~ops:!ops ph in
  let notes =
    (if !setup_bad > 0 then [ "record file set-up failed" ] else [])
    @ if !failed > 0 then [ Printf.sprintf "%d record ops failed" !failed ] else []
  in
  { r with
    boot_s; setup_s; lat; lat_mean_cycles = Stat.mean_int lat;
    failed = (if !setup_bad > 0 then !ops else !failed); notes;
    fingerprint = fingerprint ~lat [ t ] r.sim }
