(* kstats_tool: boot a system with metrics enabled, run a named workload,
   and print the kernel-wide metrics registry — the simulator's
   /proc/kstats.

   Usage: dune exec bin/kstats_tool.exe -- run --workload postmark
          dune exec bin/kstats_tool.exe -- run --workload postmark --json
          dune exec bin/kstats_tool.exe -- diff old.json new.json

   [diff] compares two BENCH_kstats.json snapshots (as written by the
   bench driver) and prints per-counter deltas for each experiment
   present in both — the quick way to see what a change did to every
   metric at once.  Like diff(1), it exits 1 when it reports a
   difference. *)

open Cmdliner

let main workload fs json =
  (* flip the boot-time default so the latency histograms record from
     the first cycle (counters and gauges always do) *)
  Core.Stats.default_enabled := true;
  let t =
    Core.boot_with
      { Core.Config.default with fs = Named_workload.fs_of_string fs }
  in
  ignore (Named_workload.run workload (Core.sys t));
  let stats = Core.stats t in
  if json then print_string (Core.Stats.to_json stats)
  else Fmt.pr "%a@." Core.Stats.pp_report stats

let workload_arg =
  let doc = "Workload to run: " ^ String.concat ", " Named_workload.names in
  Arg.(value & opt string "postmark" & info [ "w"; "workload" ] ~doc)

let fs_arg =
  Arg.(
    value & opt string "memfs"
    & info [ "f"; "fs" ] ~doc:"Filesystem stack: memfs, wrapfs, journalfs")

let json_arg =
  Arg.(value & flag & info [ "j"; "json" ] ~doc:"Emit JSON instead of the text report")

let run_term = Term.(const main $ workload_arg $ fs_arg $ json_arg)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload and print the metrics registry")
    run_term

(* --- diff: per-counter deltas between two BENCH_kstats.json ----------- *)

module Json = Kperf.Json

let parse_bench path =
  match Json.parse (Named_workload.read_file path) with
  | exception Json.Parse_error msg ->
      Fmt.failwith "%s: parse error: %s" path msg
  | j -> (
      match Json.member "experiments" j with
      | Some (Json.Arr exps) ->
          List.filter_map
            (fun e ->
              match Json.member "id" e with
              | Some (Json.Str id) -> Some (id, e)
              | _ -> None)
            exps
      | _ -> Fmt.failwith "%s: no \"experiments\" array" path)

(* Numeric leaves worth diffing per experiment: the top-level cycle
   totals plus every counter/gauge in "metrics" (histograms are summed
   distributions; their count is what diffs meaningfully). *)
let numeric_leaves e =
  let top =
    List.filter_map
      (fun k ->
        match Json.member k e with
        | Some (Json.Num v) -> Some (k, Int64.of_float v)
        | _ -> None)
      [ "boots"; "elapsed_cycles"; "utime_cycles"; "stime_cycles"; "crossings" ]
  in
  let metrics =
    match Json.member "metrics" e with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (name, v) ->
            match Json.member "type" v with
            | Some (Json.Str "counter") | Some (Json.Str "gauge") -> (
                match Json.member "value" v with
                | Some (Json.Num n) -> Some (name, Int64.of_float n)
                | _ -> None)
            | Some (Json.Str "histogram") -> (
                match Json.member "count" v with
                | Some (Json.Num n) -> Some (name ^ ".count", Int64.of_float n)
                | _ -> None)
            | _ -> None)
          fields
    | _ -> []
  in
  top @ metrics

let diff_exp id old_e new_e =
  let old_leaves = numeric_leaves old_e and new_leaves = numeric_leaves new_e in
  let changes =
    List.filter_map
      (fun (name, nv) ->
        let ov =
          match List.assoc_opt name old_leaves with
          | Some v -> v
          | None -> 0L
        in
        if nv <> ov then Some (name, ov, nv) else None)
      new_leaves
    @ List.filter_map
        (fun (name, ov) ->
          if List.mem_assoc name new_leaves then None
          else Some (name, ov, 0L))
        old_leaves
  in
  if changes <> [] then begin
    Fmt.pr "%s:@." id;
    List.iter
      (fun (name, ov, nv) ->
        let d = Int64.sub nv ov in
        let pct =
          if ov = 0L then ""
          else
            Fmt.str " (%+.2f%%)"
              (100. *. Int64.to_float d /. Int64.to_float ov)
        in
        Fmt.pr "  %-46s %14Ld -> %-14Ld %+Ld%s@." name ov nv d pct)
      changes
  end;
  List.length changes

let diff_main old_path new_path =
  let olds = parse_bench old_path and news = parse_bench new_path in
  let total = ref 0 in
  List.iter
    (fun (id, new_e) ->
      match List.assoc_opt id olds with
      | Some old_e -> total := !total + diff_exp id old_e new_e
      | None ->
          Fmt.pr "%s: only in %s@." id new_path;
          incr total)
    news;
  List.iter
    (fun (id, _) ->
      if not (List.mem_assoc id news) then begin
        Fmt.pr "%s: only in %s@." id old_path;
        incr total
      end)
    olds;
  if !total = 0 then Fmt.pr "no per-counter differences@." else exit 1

let old_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json")

let new_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Per-counter deltas between two BENCH_kstats.json snapshots")
    Term.(const diff_main $ old_arg $ new_arg)

let cmd =
  Cmd.group ~default:run_term
    (Cmd.info "kstats_tool"
       ~doc:"Run a workload and print the kernel metrics registry")
    [ run_cmd; diff_cmd ]

let () = exit (Cmd.eval cmd)
