(* The untraced timed run of one workload against the real daemon:
   set-up (repeated, for a steady set-up time), the closed-loop timed
   phase, the server_stats scrape and the daemon cross-check, then the
   output check.  Latency is taken from the first byte of a unit sent
   to the last byte of its answers read. *)

module Query = Batlife_service.Query
module Model_spec = Batlife_service.Model_spec
module Json = Batlife_numerics.Json

(* Daemons spawned per run; set-up time is their median, and the last
   one serves the timed phase. *)
let setups = 5

let run_dir = ".perfbench"

let socket_path () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.sprintf "%s/daemon-%d.sock" run_dir (Unix.getpid ())

let health = { Query.id = "health"; model = None; payload = Query.Health; deadline_s = None }
let scrape = { Query.id = "scrape"; model = None; payload = Query.Server_stats; deadline_s = None }

(* A request with its decoded answer. *)
type answer = Query.request * (Query.response, Query.error) result

(* A live daemon after set-up, with its connection and what was sent
   on it so far. *)
type live = {
  daemon : Wire.daemon;
  conn : Wire.conn;
  stream : Workloads.t;
  setup_s : float;
  setup_units : answer list list;
}

let decode (r, line) : answer = (r, Query.response_of_line line)

(* Decoded after the timing, so decoding never competes with it. *)
let units_of samples = List.map (fun s -> List.map decode s.Wire.frames) samples

(* Spawn, wait for the first health answer, run the warm-up. *)
let set_up ~batlife kind ~seed =
  let stream = Workloads.make kind ~seed in
  let t0 = Wire.now_ns () in
  let daemon =
    Wire.spawn ~batlife ~socket:(socket_path ())
      ~cache_capacity:stream.Workloads.cache_capacity
  in
  match
    let conn = Wire.connect daemon in
    let ready, _ = Wire.call conn health in
    let warm, _ =
      Wire.run_loop conn ~window:stream.Workloads.window
        ~next:(Wire.of_list stream.Workloads.warmup)
    in
    let setup_s = Wire.seconds_between t0 (Wire.now_ns ()) in
    { daemon; conn; stream; setup_s; setup_units = [ decode (health, ready) ] :: units_of warm }
  with
  | live -> live
  | exception e ->
      Wire.stop daemon;
      raise e

let tear_down live =
  Wire.close live.conn;
  Wire.stop live.daemon

(* Repeat set-up [setups] times; keep the last daemon running. *)
let set_up_repeated ~batlife kind ~seed =
  let rec go k acc_s acc_units =
    let live = set_up ~batlife kind ~seed in
    let acc_s = live.setup_s :: acc_s
    and acc_units = live.setup_units @ acc_units in
    if k = setups then (live, acc_s, acc_units)
    else begin
      tear_down live;
      go (k + 1) acc_s acc_units
    end
  in
  go 1 [] []

type metric = { name : string; value : float; unit : string; samples : int }

type outcome = {
  metrics : metric list;
  extra : metric list;  (** workload-specific figures, printed only *)
  attempted : int;
  failed : int;
  correct : bool;
  notes : string list;  (** failed checks *)
  context : (string * Json.t) list;
}

(* The daemon's batlife.stats/1 snapshot, scraped on the connection. *)
let scrape_stats conn =
  let line, _ = Wire.call conn scrape in
  match Query.response_of_line line with
  | Ok { Query.result = Ok (Query.Service_stats { stats }); _ } -> stats
  | _ -> failwith ("server_stats scrape failed: " ^ line)

let cache_of : answer -> string option = function
  | _, Ok { Query.cache; _ } -> cache
  | _, Error _ -> None

let member path json =
  List.fold_left (fun j field -> Json.member ~field j) json path

let int_at path json = Json.to_int ~field:(String.concat "." path) (member path json)

(* The daemon's own counters against the client's tally of the units
   it sent on the final connection (the scrape excluded) and what came
   back.  The daemon counts one cache lookup per fingerprint group of a
   batch.  With one single-frame unit in flight no batch can group two
   frames, so its hits and misses must equal the client's "cache"
   members exactly.  Where frames can share a group (a three-frame
   refresh, or 32 frames in flight) the population fits in the cache,
   so each model misses exactly once and nothing is evicted, and the
   hits lie between the all-hit units (one in flight) or 1 and the hit
   frames. *)
let cross_check stats ~window ~units =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect what got want =
    if got <> want then note "daemon %s = %d, client %d" what got want
  in
  let frames = List.concat units in
  expect "requests.admitted" (int_at [ "requests"; "admitted" ] stats)
    (List.length frames + 1);
  expect "requests.shed" (int_at [ "requests"; "shed" ] stats) 0;
  expect "requests.errors" (int_at [ "requests"; "errors" ] stats) 0;
  List.iter
    (fun kind ->
      expect ("latency." ^ kind ^ ".count")
        (int_at [ "latency"; kind; "count" ] stats)
        (List.length
           (List.filter
              (fun ((r : Query.request), _) ->
                if Query.is_admin r.Query.payload then kind = "admin"
                else Query.payload_kind r.Query.payload = kind)
              frames)))
    [ "cdf"; "measures"; "percentiles"; "stats"; "admin" ];
  let with_status status = List.filter (fun a -> cache_of a = Some status) frames in
  let hits = int_at [ "cache"; "hits" ] stats
  and misses = int_at [ "cache"; "misses" ] stats in
  let hit_frames = List.length (with_status "hit") in
  if window = 1 && List.for_all (fun u -> List.length u = 1) units then begin
    expect "cache.hits" hits hit_frames;
    expect "cache.misses" misses (List.length (with_status "miss"))
  end
  else begin
    let missed_models =
      List.sort_uniq compare
        (List.filter_map
           (fun ((r : Query.request), _) -> Option.map Model_spec.fingerprint r.Query.model)
           (with_status "miss"))
    in
    expect "cache.misses (models first seen)" misses (List.length missed_models);
    expect "cache.evictions" (int_at [ "cache"; "evictions" ] stats) 0;
    let all_hit u = List.for_all (fun a -> cache_of a = Some "hit") u in
    let lower =
      if window = 1 then List.length (List.filter all_hit units)
      else if hit_frames > 0 then 1
      else 0
    in
    if hits < lower || hits > hit_frames then
      note "daemon cache.hits = %d outside [%d, %d]" hits lower hit_frames
  end;
  List.rev !problems

(* Problems of every answer, by [Oracle] against its exact recompute. *)
let check_frames (frames : answer list) =
  let exact = Oracle.exact (List.map fst frames) in
  List.map
    (fun ((r : Query.request), decoded) ->
      match decoded with
      | Ok resp -> (r, Oracle.problems ~exact r resp)
      | Error e -> (r, [ "undecodable answer: " ^ e.Query.message ]))
    frames

let metric name value unit samples = { name; value; unit; samples }

let latency_ms samples = List.map (fun s -> s.Wire.latency_s *. 1e3) samples

let run ~batlife kind ~seed ~seconds =
  let live, setup_times, setup_units = set_up_repeated ~batlife kind ~seed in
  let stream = live.stream in
  let window = stream.Workloads.window in
  let ticks0 = Wire.cpu_ticks () in
  let timed, elapsed_s, stats, rss_mb =
    Fun.protect
      ~finally:(fun () -> tear_down live)
      (fun () ->
        let timed, elapsed_s =
          Wire.run_loop live.conn ~window
            ~next:(Wire.until ~stop_ns:(Wire.deadline seconds) stream.Workloads.next)
        in
        let stats = scrape_stats live.conn in
        (timed, elapsed_s, stats, Wire.peak_rss_mb live.daemon.Wire.pid))
  in
  let steal = Wire.steal_frac ticks0 (Wire.cpu_ticks ()) in
  let timed_units = units_of timed in
  let final_units = live.setup_units @ timed_units in
  let cross = cross_check stats ~window ~units:final_units in
  let checked = check_frames (List.concat (setup_units @ timed_units)) in
  let bad = List.filter (fun (_, ps) -> ps <> []) checked in
  let timed_ids = Hashtbl.create 4096 in
  List.iter
    (fun ((r : Query.request), _) -> Hashtbl.replace timed_ids r.Query.id ())
    (List.concat timed_units);
  let attempted = Hashtbl.length timed_ids in
  let failed =
    List.length
      (List.filter (fun ((r : Query.request), _) -> Hashtbl.mem timed_ids r.Query.id) bad)
  in
  let n = List.length timed in
  let lat = latency_ms timed in
  let what = Workloads.name kind in
  let metrics =
    [
      metric "latency_p50_ms" (Sample.percentile ~what lat 0.50) "ms" n;
      metric "latency_p90_ms" (Sample.percentile ~what lat 0.90) "ms" n;
      metric "throughput_rps" (float_of_int n /. elapsed_s) "1/s" n;
      metric "ok_frac" (float_of_int (attempted - failed) /. float_of_int attempted) "frac"
        attempted;
      metric "setup_s" (Sample.median setup_times) "s" (List.length setup_times);
      metric "rss_peak_mb" rss_mb "MiB" 1;
    ]
  in
  let extra =
    match kind with
    | Workloads.Zipf_mix ->
        let split status =
          List.filter_map
            (fun (s, unit_) ->
              match unit_ with [ a ] when cache_of a = Some status -> Some s | _ -> None)
            (List.combine timed timed_units)
        in
        List.map
             (fun status ->
               let xs = latency_ms (split status) in
               metric (status ^ "_latency_p50_ms")
                 (Sample.percentile ~what:(what ^ " " ^ status) xs 0.50)
                 "ms" (List.length xs))
             [ "hit"; "miss" ]
    | Workloads.Stats_pipelined ->
        [ metric "latency_p99_ms" (Sample.percentile ~what lat 0.99) "ms" n ]
    | Workloads.Twowell_dashboard -> []
  in
  let notes =
    cross
    @ List.map
        (fun ((r : Query.request), ps) ->
          Printf.sprintf "answer %s: %s" r.Query.id (String.concat "; " ps))
        bad
  in
  let jobs = int_at [ "pool"; "jobs" ] stats in
  {
    metrics;
    extra;
    attempted;
    failed;
    correct = notes = [];
    notes;
    context =
      [
        ("jobs", Json.of_int jobs);
        ("window", Json.of_int window);
        ("timed_units", Json.of_int n);
        ("timed_frames", Json.of_int attempted);
        ("setups", Json.of_int (List.length setup_times));
      ]
      @ Option.to_list (Option.map (fun f -> ("steal_frac", Json.of_float f)) steal);
  }
