(* Deterministic fault injection.  See kfault.mli for the model.

   Determinism requirements shape the whole file: no Random, no
   wall-clock — the probability trigger runs a private splitmix-style
   stream seeded from (plan seed, site id), and every trigger is a
   function of the per-site occurrence counter and the simulated
   clock only.  [fire] never charges cycles; recovery costs belong to
   the subsystem that reacts to the fault. *)

type trigger =
  | Every_nth of int
  | Prob of { seed : int; ppm : int }
  | Cycle_window of { lo : int; hi : int }
  | One_shot of int

type plan = { site : string; trigger : trigger }

type armed = { a_trigger : trigger; mutable a_state : int }

type site = {
  s_name : string;
  s_id : int;
  mutable s_occ : int;  (* occurrences while armed *)
  mutable s_fires : int;
  mutable s_armed : armed option;
  mutable s_counter : Kstats.counter option;  (* kfault.site.<name> *)
}

type t = {
  mutable armed : bool;  (* the one switch, and the one hot-path load *)
  stats : Kstats.t option;
  now : unit -> int;
  mutable perf : Kperf.t option;
  by_name : (string, site) Hashtbl.t;
  mutable sites_rev : site list;
  mutable plans : plan list;  (* the armed plan set, for late registration *)
  mutable st_fires : Kstats.counter option;  (* kfault.fires *)
}

let create ?stats ?(now = fun () -> 0) () =
  {
    armed = false;
    stats;
    now;
    perf = None;
    by_name = Hashtbl.create 16;
    sites_rev = [];
    plans = [];
    st_fires = None;
  }

let is_armed t = t.armed
let set_perf t p = t.perf <- p

(* splitmix64-style scramble on OCaml's native ints: good enough to
   decorrelate per-site streams and stable across runs. *)
let scramble z =
  let z = z + 0x1E3779B97F4A7C15 in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let seed_for ~seed s = scramble (scramble seed lxor (s.s_id + 1))

let arm_site s (p : plan) =
  let state =
    match p.trigger with Prob { seed; _ } -> seed_for ~seed s | _ -> 0
  in
  s.s_armed <- Some { a_trigger = p.trigger; a_state = state }

let register t name =
  match Hashtbl.find_opt t.by_name name with
  | Some s -> s
  | None ->
      let s =
        { s_name = name; s_id = Hashtbl.length t.by_name; s_occ = 0;
          s_fires = 0; s_armed = None; s_counter = None }
      in
      Hashtbl.replace t.by_name name s;
      t.sites_rev <- s :: t.sites_rev;
      (* subsystems created mid-run (a ring, a Cosy extension) register
         their sites after [arm]; the plan binds here so the sweep can
         reach them *)
      if t.armed then
        (match List.find_opt (fun (p : plan) -> p.site = name) t.plans with
        | Some p -> arm_site s p
        | None -> ());
      s

let site_name s = s.s_name
let sites t = List.rev t.sites_rev
let site_names t = List.map (fun s -> s.s_name) (sites t)
let find_site t name = Hashtbl.find_opt t.by_name name

let arm ?(strict = true) t plans =
  if strict then
    List.iter
      (fun (p : plan) ->
        if not (Hashtbl.mem t.by_name p.site) then
          failwith ("Kfault.arm: unknown site " ^ p.site))
      plans;
  List.iter
    (fun s ->
      s.s_occ <- 0;
      s.s_fires <- 0;
      s.s_armed <- None)
    (sites t);
  List.iter
    (fun (p : plan) ->
      match Hashtbl.find_opt t.by_name p.site with
      | None -> ()
      | Some s -> arm_site s p)
    plans;
  t.plans <- plans;
  t.armed <- true

let disarm t = t.armed <- false

let fired t s =
  s.s_fires <- s.s_fires + 1;
  (match t.stats with
  | None -> ()
  | Some st ->
      (match t.st_fires with
      | Some c -> Kstats.incr c
      | None ->
          let c = Kstats.counter st "kfault.fires" in
          t.st_fires <- Some c;
          Kstats.incr c);
      (match s.s_counter with
      | Some c -> Kstats.incr c
      | None ->
          let c = Kstats.counter st ("kfault." ^ s.s_name) in
          s.s_counter <- Some c;
          Kstats.incr c));
  match t.perf with
  | None -> ()
  | Some p -> Kperf.instant p ~arg:s.s_occ ~cat:"kfault" ~name:s.s_name ()

let fire t s =
  if not t.armed then false
  else begin
    s.s_occ <- s.s_occ + 1;
    match s.s_armed with
    | None -> false
    | Some a ->
        let hit =
          match a.a_trigger with
          | Every_nth n -> n > 0 && s.s_occ mod n = 0
          | One_shot k -> s.s_occ = k
          | Cycle_window { lo; hi } ->
              let c = t.now () in
              c >= lo && c < hi
          | Prob { ppm; _ } ->
              a.a_state <- scramble a.a_state;
              (a.a_state land max_int) mod 1_000_000 < ppm
        in
        if hit then fired t s;
        hit
  end

let occurrences _t s = s.s_occ
let fires _t s = s.s_fires
let counts t = List.map (fun s -> (s.s_name, s.s_occ, s.s_fires)) (sites t)

(* Plan specs: SITE=nth:N | prob:PPM:SEED | window:LO:HI | once:K | at:C *)

let trigger_of_string str =
  let bad () = Error (Printf.sprintf "bad trigger %S" str) in
  let int s = int_of_string_opt s in
  match String.split_on_char ':' str with
  | [ "nth"; n ] -> (
      match int n with Some n when n > 0 -> Ok (Every_nth n) | _ -> bad ())
  | [ "once"; k ] -> (
      match int k with Some k when k > 0 -> Ok (One_shot k) | _ -> bad ())
  | [ "prob"; ppm; seed ] -> (
      match (int ppm, int seed) with
      | Some ppm, Some seed when ppm >= 0 && ppm <= 1_000_000 ->
          Ok (Prob { seed; ppm })
      | _ -> bad ())
  | [ "window"; lo; hi ] -> (
      match (int lo, int hi) with
      | Some lo, Some hi when lo >= 0 && hi > lo ->
          Ok (Cycle_window { lo; hi })
      | _ -> bad ())
  (* crash_at: fire at the first probe at or after cycle C — an
     open-ended window, so a power-loss cannot be dodged by a probe
     landing a cycle late *)
  | [ "at"; c ] -> (
      match int c with
      | Some c when c >= 0 -> Ok (Cycle_window { lo = c; hi = max_int })
      | _ -> bad ())
  | _ -> bad ()

let plan_of_spec spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "bad plan %S (want SITE=TRIGGER)" spec)
  | Some i ->
      let site = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      if site = "" then Error (Printf.sprintf "bad plan %S (empty site)" spec)
      else
        Result.map (fun trigger -> { site; trigger }) (trigger_of_string rest)

let pp_trigger ppf = function
  | Every_nth n -> Fmt.pf ppf "nth:%d" n
  | One_shot k -> Fmt.pf ppf "once:%d" k
  | Prob { ppm; seed } -> Fmt.pf ppf "prob:%d:%d" ppm seed
  | Cycle_window { lo; hi } when hi = max_int -> Fmt.pf ppf "at:%d" lo
  | Cycle_window { lo; hi } -> Fmt.pf ppf "window:%d:%d" lo hi

let pp_plan ppf p = Fmt.pf ppf "%s=%a" p.site pp_trigger p.trigger

let sweep_points ?max_per_site counts =
  List.concat_map
    (fun (name, occ) ->
      if occ <= 0 then []
      else
        let picks =
          match max_per_site with
          | Some m when m = 1 -> [ 1 ]
          | Some m when m > 0 && occ > m ->
              (* evenly spaced sample including the first and last *)
              List.init m (fun i -> 1 + (i * (occ - 1) / (m - 1)))
              |> List.sort_uniq compare
          | _ -> List.init occ (fun i -> i + 1)
        in
        List.map (fun k -> (name, k)) picks)
    counts
