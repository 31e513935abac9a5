(* The traced run: per-layer metrics for one workload.

   The same seeded requests are replayed in-process through each
   layer's public functions, with spans recorded by this module around
   every call: decode, fingerprint, cache lookup (which builds Q* on a
   miss), registration, the session flush (kernel build, Fox-Glynn
   windows and the sweep), readout and encode.  A layer's self time is
   its span minus its children.  Layers the program only calls inside a
   flush (the kernel build, the windows) and layers off the replay path
   (Q* build, service batching, measure evaluation, the parallel pool,
   the CLI) are timed by calling them on the same inputs beside it.
   Work counts come from the program's own readers: Telemetry counters,
   Session.approx_bytes and Gc.minor_words.

   A short untraced socket run against the real daemon gives the wire
   figures (health round trip, sheds, queue depth) and the untraced p50
   that trace.coverage_frac divides by. *)

module Query = Batlife_service.Query
module Model_spec = Batlife_service.Model_spec
module Cache = Batlife_service.Cache
module Service = Batlife_service.Service
module Discretized = Batlife_core.Discretized
module Session = Discretized.Session
module Lifetime = Batlife_core.Lifetime
module Transient = Batlife_ctmc.Transient
module Solver_opts = Batlife_ctmc.Solver_opts
module Telemetry = Batlife_numerics.Telemetry
module Poisson = Batlife_numerics.Poisson
module Json = Batlife_numerics.Json

(* The ledger: every per-layer metric with the end-to-end metric and
   workload it should move.  Later performance work cites these names. *)
let ledger =
  [
    ("query.decode_us", "us", "throughput_rps on stats-pipelined; ~0 elsewhere");
    ("query.encode_us", "us", "throughput_rps on stats-pipelined; ~0 elsewhere");
    ("query.response_bytes", "bytes", "throughput_rps on stats-pipelined; ~0 elsewhere");
    ("server.health_rtt_us", "us", "latency_p50_ms on stats-pipelined");
    ("server.shed", "count", "ok_frac on every workload");
    ("server.queue_depth_p99", "count", "latency_p50_ms and latency_p99_ms on stats-pipelined");
    ( "service.batch_us_per_request", "us",
      "throughput_rps on stats-pipelined; latency_p50_ms on twowell-dashboard" );
    ( "service.requests_per_sweep", "count",
      "latency_p50_ms on twowell-dashboard; 0 on stats-pipelined (no sweep)" );
    ( "model_spec.fingerprint_us", "us",
      "throughput_rps on stats-pipelined; hit/miss_latency_p50_ms on zipf-mix" );
    ("cache.lookup_us", "us", "throughput_rps on stats-pipelined; hit/miss_latency_p50_ms on zipf-mix");
    ("cache.hit_ratio", "frac", "latency_p50_ms on zipf-mix");
    ("cache.evictions", "count", "latency_p50_ms and miss_latency_p50_ms on zipf-mix");
    ("discretized.build_ms", "ms", "miss_latency_p50_ms on zipf-mix; rss_peak_mb");
    ("discretized.session_bytes", "bytes", "rss_peak_mb on every workload");
    ("transient.kernel_build_ms", "ms", "miss_latency_p50_ms on zipf-mix");
    ("poisson.windows_per_request", "count", "miss_latency_p50_ms on zipf-mix (percentiles)");
    ("poisson.window_us", "us", "miss_latency_p50_ms on zipf-mix (percentiles)");
    ( "transient.products_per_request", "count",
      "latency_p50_ms on twowell-dashboard, then zipf-mix; none on stats-pipelined" );
    ( "transient.touched_nnz_per_request", "count",
      "latency_p50_ms on twowell-dashboard, then zipf-mix; none on stats-pipelined" );
    ( "transient.ns_per_product", "ns",
      "latency_p50_ms on twowell-dashboard, then zipf-mix and cli.solve_ms" );
    ( "transient.ns_per_touched_nnz", "ns",
      "latency_p50_ms on twowell-dashboard, then zipf-mix and cli.solve_ms" );
    ( "transient.minor_words_per_product", "words",
      "latency_p50_ms on twowell-dashboard, then zipf-mix" );
    ("session.functionals_per_sweep", "count", "latency_p50_ms on twowell-dashboard");
    ("session.measure_eval_ms", "ms", "latency_p50_ms on twowell-dashboard; ~0 on zipf-mix");
    ("session.readout_us", "us", "latency_p50_ms on twowell-dashboard");
    ("pool.parallel_over_sequential", "ratio", "cli.solve_ms (the cli-fig7 solve)");
    ("lifetime.cdf_ms", "ms", "cli.solve_ms (the cli-fig7 solve)");
    ("iterative.expected_lifetime_ms", "ms", "cli.solve_ms (the cli-fig7 solve)");
    ("cli.startup_ms", "ms", "cli.solve_ms (the cli-fig7 solve)");
    ("cli.solve_ms", "ms", "itself: one `batlife lifetime` fig-7 process, default --jobs");
    ("trace.coverage_frac", "frac", "none: share of the untraced p50 the layers account for");
    ("trace.overhead_frac", "frac", "none: cost of the spans in the in-process replay");
  ]

(* ---- spans ---------------------------------------------------------- *)

type span = { id : int; name : string; rid : int; parent : int; start : int64; stop : int64 }

let tracing = ref true
let recorded : span list ref = ref []
let open_spans = ref []
let next_id = ref 0

let span name ~rid f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let start = Wire.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        open_spans := List.tl !open_spans;
        recorded := { id; name; rid; parent; start; stop = Wire.now_ns () } :: !recorded)
      f
  end

let duration_ns s = Int64.to_float (Int64.sub s.stop s.start)

(* The recorded spans, one JSON object per line. *)
let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (String.trim
               (Json.encode
                  (Json.Obj
                     [
                       ("id", Json.of_int s.id);
                       ("name", Json.Str s.name);
                       ("rid", Json.of_int s.rid);
                       ("parent", Json.of_int s.parent);
                       ("start_ns", Json.Str (Int64.to_string s.start));
                       ("end_ns", Json.Str (Int64.to_string s.stop));
                     ])));
          output_char oc '\n')
        (List.rev !recorded))

(* Self time per span id: its duration minus its children's. *)
let self_times () =
  let self = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace self s.id (duration_ns s)) !recorded;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace self s.parent (Hashtbl.find self s.parent -. duration_ns s))
    !recorded;
  self

(* ---- timing helpers -------------------------------------------------- *)

let time f =
  let t0 = Wire.now_ns () in
  let v = f () in
  (v, Wire.seconds_between t0 (Wire.now_ns ()))

let median_time ?(reps = 5) f =
  Sample.median (List.init reps (fun _ -> snd (time f)))

let counter name = Telemetry.value (Telemetry.counter name)

(* Run [f] as the service runs a model group: as a task of a pool
   section, so the sweep's own parallel sections nest and run inline. *)
let as_service f =
  let pool = Batlife_numerics.Pool.get ~jobs:(Batlife_numerics.Pool.default_jobs ()) in
  (Batlife_numerics.Pool.map_array pool f [| () |]).(0)

(* ---- the in-process replay ------------------------------------------ *)

(* What one flush did, read from the program's counters around it. *)
type flush = {
  f_seconds : float;
  products : int;
  touched : int;
  kernel_builds : int;
  windows : int;
  minor_words : float;
}

type replay = {
  units : Query.request list list;  (** in replay order *)
  frames : int;
  model_requests : int;
  hits : int;
  misses : int;
  evictions : int;
  flushes : flush list;
  functionals : int;
  response_bytes : int;
  sessions : Session.session list;
  times_seen : float list;  (** distinct query times of the first model *)
  covered_ns : float list;  (** per unit: time inside layer spans *)
  lookup_hit : (int, bool) Hashtbl.t;  (** per unit id: was its lookup a hit *)
  elapsed_s : float;
}

(* The linear functionals a query registers on its session: one per
   CDF, one per charge level or workload mode of a marginal, one per
   scalar measure. *)
let functionals d (r : Query.request) =
  let grid = d.Discretized.grid in
  match r.Query.payload with
  | Query.Cdf _ | Query.Percentiles _ -> 1
  | Query.Measures { measures; _ } ->
      List.fold_left
        (fun acc m ->
          acc
          +
          match (m : Query.measure) with
          | Query.Mode_marginal -> grid.Batlife_core.Grid.n_workload
          | Query.Charge_marginal -> grid.Batlife_core.Grid.levels1
          | Query.Expected_charge | Query.Joint _ -> 1)
        0 measures
  | Query.Stats | Query.Server_stats | Query.Prometheus | Query.Health -> 0

(* The service's registrations, through the public Session API. *)
let register (entry : Cache.entry) (r : Query.request) : unit -> Query.result =
  let s = entry.Cache.session in
  match r.Query.payload with
  | Query.Cdf { times } ->
      let p = Session.empty_probability s ~times in
      fun () -> Query.Curve { times; probabilities = Session.get p }
  | Query.Percentiles { ps; horizon; points } ->
      let times = Oracle.percentile_times ~horizon ~points in
      let p = Session.empty_probability s ~times in
      fun () ->
        let probabilities = Array.copy (Session.get p) in
        Lifetime.sanitize times probabilities;
        let interp = Batlife_numerics.Interp.create ~xs:times ~ys:probabilities in
        Query.Quantiles { ps; values = Array.map (Batlife_numerics.Interp.inverse interp) ps }
  | Query.Measures { time; measures } ->
      let parts =
        List.map
          (fun (m : Query.measure) ->
            match m with
            | Query.Expected_charge ->
                let p = Session.expected_available_charge s ~time in
                fun () -> [ ("expected_charge", [| Session.get p |]) ]
            | Query.Mode_marginal ->
                let p = Session.mode_marginal s ~time in
                fun () -> [ ("mode_marginal", Session.get p) ]
            | Query.Charge_marginal ->
                let p = Session.available_charge_marginal s ~time in
                fun () ->
                  let pairs = Session.get p in
                  [
                    ("charge_levels", Array.map fst pairs);
                    ("charge_marginal", Array.map snd pairs);
                  ]
            | Query.Joint { mode; min_charge } ->
                let p = Session.joint_probability s ~time ~mode ~min_charge in
                fun () -> [ ("joint", [| Session.get p |]) ])
          measures
      in
      fun () -> Query.Per_time { time; values = List.concat_map (fun f -> f ()) parts }
  | Query.Stats ->
      let d = entry.Cache.d in
      fun () ->
        Query.Model_stats
          {
            states = Discretized.n_states d;
            nnz = Discretized.nnz d;
            unif_rate = Session.uniformisation_rate s;
            fingerprint = entry.Cache.fingerprint;
            kernel = None;
          }
  | Query.Server_stats | Query.Prometheus | Query.Health -> assert false

(* Replay the units [next] yields (request lists, as the client would
   write them) on a fresh cache of the daemon's capacity. *)
let replay (stream : Workloads.t) ~next =
  let cache =
    Cache.create ~capacity:(Option.value stream.Workloads.cache_capacity ~default:32) ()
  in
  let evictions0 = Cache.evictions cache in
  let hits = ref 0 and misses = ref 0 and model_requests = ref 0 and frames = ref 0 in
  let flushes = ref [] and nfunctionals = ref 0 and bytes = ref 0 in
  let sessions = Hashtbl.create 64 and times_seen = Hashtbl.create 64 in
  let first_fp = Model_spec.fingerprint stream.Workloads.population.(0) in
  let covered = ref [] and lookup_hit = Hashtbl.create 256 and units = ref [] in
  let t0 = Wire.now_ns () in
  let rec loop rid =
    match next () with
    | None -> ()
    | Some unit_ ->
      units := unit_ :: !units;
      let lines = List.map Query.request_to_line unit_ in
      frames := !frames + List.length lines;
      let answer () =
        let reqs =
          span "query.decode" ~rid (fun () ->
              List.map
                (fun l ->
                  match Query.request_of_line l with
                  | Ok r -> r
                  | Error e -> failwith e.Query.message)
                lines)
        in
        let responses =
          match reqs with
          | { Query.model = None; _ } :: _ ->
              List.map
                (fun (r : Query.request) ->
                  {
                    Query.r_id = r.Query.id;
                    cache = None;
                    result = Ok (Query.Health_report { status = "ok"; uptime_s = 0. });
                  })
                reqs
          | { Query.model = Some spec; _ } :: _ ->
              model_requests := !model_requests + List.length reqs;
              let fp = span "model_spec.fingerprint" ~rid (fun () -> Model_spec.fingerprint spec) in
              let entry, status =
                span "cache.lookup" ~rid (fun () -> Cache.find_or_build cache spec)
              in
              (match status with `Hit -> incr hits | `Miss -> incr misses);
              Hashtbl.replace lookup_hit rid (status = `Hit);
              Hashtbl.replace sessions fp entry.Cache.session;
              let forces =
                span "session.register" ~rid (fun () -> List.map (register entry) reqs)
              in
              List.iter
                (fun (r : Query.request) ->
                  nfunctionals := !nfunctionals + functionals entry.Cache.d r;
                  if fp = first_fp then
                    List.iter
                      (fun t -> Hashtbl.replace times_seen t ())
                      (Oracle.query_times r.Query.payload))
                reqs;
              let before =
                ( counter "transient.products",
                  counter "transient.touched_nnz",
                  counter "session.kernel_builds",
                  counter "session.window_misses",
                  counter "session.flushes",
                  Gc.minor_words () )
              in
              let (_ : Transient.stats), seconds =
                time (fun () ->
                    span "session.flush" ~rid (fun () ->
                        as_service (fun () -> Session.run entry.Cache.session)))
              in
              let p0, n0, k0, w0, f0, m0 = before in
              if counter "session.flushes" > f0 then
                flushes :=
                  {
                    f_seconds = seconds;
                    products = counter "transient.products" - p0;
                    touched = counter "transient.touched_nnz" - n0;
                    kernel_builds = counter "session.kernel_builds" - k0;
                    windows = counter "session.window_misses" - w0;
                    minor_words = Gc.minor_words () -. m0;
                  }
                  :: !flushes;
              let results = span "session.readout" ~rid (fun () -> List.map (fun f -> f ()) forces) in
              let status = match status with `Hit -> "hit" | `Miss -> "miss" in
              List.map2
                (fun (r : Query.request) result ->
                  { Query.r_id = r.Query.id; cache = Some status; result = Ok result })
                reqs results
          | [] -> []
        in
        let out = span "query.encode" ~rid (fun () -> List.map Query.response_to_line responses) in
        List.iter (fun l -> bytes := !bytes + String.length l) out
      in
      span "unit" ~rid answer;
      loop (rid + 1)
  in
  loop 0;
  let elapsed_s = Wire.seconds_between t0 (Wire.now_ns ()) in
  if !tracing then begin
    let self = self_times () in
    let per_unit = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.name = "unit" then
          Hashtbl.replace per_unit s.rid (duration_ns s -. Hashtbl.find self s.id))
      !recorded;
    covered := Hashtbl.fold (fun _ v acc -> v :: acc) per_unit []
  end;
  {
    units = List.rev !units;
    frames = !frames;
    model_requests = !model_requests;
    hits = !hits;
    misses = !misses;
    evictions = Cache.evictions cache - evictions0;
    flushes = !flushes;
    functionals = !nfunctionals;
    response_bytes = !bytes;
    sessions = Hashtbl.fold (fun _ s acc -> s :: acc) sessions [];
    times_seen = List.sort Float.compare (Hashtbl.fold (fun t () acc -> t :: acc) times_seen []);
    covered_ns = !covered;
    lookup_hit;
    elapsed_s;
  }

(* Self times, in microseconds, of the spans named [name]. *)
let self_us ?(only = fun _ -> true) name =
  let self = self_times () in
  List.filter_map
    (fun s -> if s.name = name && only s then Some (Hashtbl.find self s.id /. 1e3) else None)
    !recorded

let per n total = if n = 0 then 0. else total /. float_of_int n

(* ---- probes beside the replay ---------------------------------------- *)

(* The stream's units, warm-up first, for [budget_s] seconds. *)
let budgeted_units (stream : Workloads.t) ~budget_s =
  let warm = ref stream.Workloads.warmup in
  let stop_ns = Wire.deadline budget_s in
  fun () ->
    match !warm with
    | u :: tl ->
        warm := tl;
        Some u
    | [] -> Wire.until ~stop_ns stream.Workloads.next ()

let fresh_session spec =
  let d = Model_spec.build spec in
  (d, Session.create ~opts:(Model_spec.opts spec) d)

(* ns per product and per touched nonzero, and minor words per
   product, of warm CDF flushes on one model. *)
let sweep_probe spec times =
  let _, s = fresh_session spec in
  let flush () =
    ignore (Session.empty_probability s ~times : float array Session.pending);
    as_service (fun () -> Session.run s)
  in
  ignore (flush () : Transient.stats);
  let p0 = counter "transient.products" and n0 = counter "transient.touched_nnz" in
  let m0 = Gc.minor_words () in
  let (), seconds = time (fun () -> for _ = 1 to 3 do ignore (flush () : Transient.stats) done) in
  let products = counter "transient.products" - p0
  and touched = float_of_int (counter "transient.touched_nnz" - n0) in
  let per_product = float_of_int products in
  ( seconds *. 1e9 /. per_product,
    seconds *. 1e9 /. touched,
    (Gc.minor_words () -. m0) /. per_product,
    products )

(* A full dashboard refresh flush minus a CDF-only flush on the same
   model and grid, both warm. *)
let measure_eval_ms spec =
  let d, s = fresh_session spec in
  let cdf_times = [| 6000.; 9000.; 12000. |] and mtime = 9000. in
  let ptimes = Oracle.percentile_times ~horizon:18000. ~points:24 in
  let grid = Array.concat [ cdf_times; ptimes; [| mtime |] ] in
  let cdf_only () =
    ignore (Session.empty_probability s ~times:grid : float array Session.pending);
    ignore (as_service (fun () -> Session.run s) : Transient.stats)
  in
  let full () =
    ignore (Session.empty_probability s ~times:cdf_times : float array Session.pending);
    ignore (Session.empty_probability s ~times:ptimes : float array Session.pending);
    ignore (Session.expected_available_charge s ~time:mtime : float Session.pending);
    ignore (Session.mode_marginal s ~time:mtime : float array Session.pending);
    ignore (Session.available_charge_marginal s ~time:mtime : (float * float) array Session.pending);
    ignore
      (Session.joint_probability s ~time:mtime
         ~mode:(min 1 (d.Discretized.grid.Batlife_core.Grid.n_workload - 1))
         ~min_charge:1000.
        : float Session.pending);
    ignore (as_service (fun () -> Session.run s) : Transient.stats)
  in
  full ();
  (median_time ~reps:3 full -. median_time ~reps:3 cdf_only) *. 1e3

(* Service.handle_batch of an all-hit batch of 32 stats frames. *)
let service_batch_us (population : Model_spec.t array) =
  let svc = Service.create ~cache_capacity:(Array.length population) () in
  let stats i =
    { Query.id = string_of_int i; model = Some population.(i mod Array.length population);
      payload = Query.Stats; deadline_s = None }
  in
  ignore (Service.handle_batch svc (List.init (Array.length population) stats) : Query.response list);
  let batch = List.init 32 stats in
  median_time ~reps:20 (fun () -> ignore (Service.handle_batch svc batch : Query.response list))
  *. 1e6 /. 32.

(* ---- cli-fig7: the paper-reproduction path ---------------------------- *)

let cli_frequencies = [| 0.5; 1.; 2.; 4. |]

let cli_spec frequency =
  {
    Model_spec.workload = Model_spec.Onoff { frequency; k = 1; on_current = 0.96 };
    capacity = 7200.;
    c = 1.0;
    k = 0.0;
    delta = 100.;
    accuracy = None;
  }

let cli_times = Array.init 40 (fun i -> 20000. /. 40. *. float_of_int (i + 1))

(* Run a process to completion; its standard output and wall time. *)
let run_process prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Wire.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out_w; Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out_w null)
  in
  Wire.track pid;
  let text =
    Fun.protect ~finally:(fun () -> Unix.close out_r) (fun () ->
        let ic = Unix.in_channel_of_descr out_r in
        In_channel.input_all ic)
  in
  let _, status = Unix.waitpid [] pid in
  Wire.reaped pid;
  if status <> Unix.WEXITED 0 then failwith (prog ^ " " ^ String.concat " " args ^ " failed");
  (text, Wire.seconds_between t0 (Wire.now_ns ()))

let parse_table text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match String.split_on_char '\t' l with
         | [ t; p ] -> Some (float_of_string t, float_of_string p)
         | _ -> None)
  |> Array.of_list

(* ---- the traced run --------------------------------------------------- *)

let metric name value =
  let unit = match List.find_opt (fun (n, _, _) -> n = name) ledger with
    | Some (_, u, _) -> u
    | None -> invalid_arg name
  in
  fun samples -> { Timed.name; value; unit; samples }

let run ~batlife kind ~seed ~seconds : Timed.outcome =
  let what = Workloads.name kind ^ " (traced run)" in
  (* Untraced socket part: health round trips on the idle daemon, then
     half the run's seconds of the workload, then the scrape. *)
  let live = Timed.set_up ~batlife kind ~seed in
  let health_units, socket_samples, stats =
    Fun.protect
      ~finally:(fun () -> Timed.tear_down live)
      (fun () ->
        let health =
          List.init 200 (fun _ ->
              let line, rtt = Wire.call live.Timed.conn Timed.health in
              (Timed.decode (Timed.health, line), rtt))
        in
        let samples, _ =
          Wire.run_loop live.Timed.conn ~window:live.Timed.stream.Workloads.window
            ~next:
              (Wire.until ~stop_ns:(Wire.deadline (seconds /. 2.))
                 live.Timed.stream.Workloads.next)
        in
        (health, samples, Timed.scrape_stats live.Timed.conn))
  in
  let socket_units =
    live.Timed.setup_units @ List.map (fun (f, _) -> [ f ]) health_units
    @ Timed.units_of socket_samples
  in
  let cross =
    Timed.cross_check stats ~window:live.Timed.stream.Workloads.window ~units:socket_units
  in
  let checked = Timed.check_frames (List.concat socket_units) in
  let socket_p50_ms = Sample.percentile ~what (Timed.latency_ms socket_samples) 0.5 in
  (* Replays: an untraced pass fixes the units, then traced and
     untraced passes alternate; the spans kept are the last traced
     pass's, and the overhead compares the median pass times. *)
  let budget_s = Float.max 1. (seconds /. 10.) in
  tracing := false;
  let first =
    let stream = Workloads.make kind ~seed in
    replay stream ~next:(budgeted_units stream ~budget_s)
  in
  let again traced =
    tracing := traced;
    if traced then recorded := [];
    let pass = replay (Workloads.make kind ~seed) ~next:(Wire.of_list first.units) in
    tracing := true;
    pass
  in
  let on1 = again true in
  let off1 = again false in
  let r = again true in
  let off2 = again false in
  let spans_path =
    Printf.sprintf "%s/spans-%s-%d.jsonl" Timed.run_dir (Workloads.name kind) seed
  in
  write_spans spans_path;
  let elapsed passes = Sample.median (List.map (fun p -> p.elapsed_s) passes) in
  let overhead = (elapsed [ on1; r ] /. elapsed [ first; off1; off2 ]) -. 1. in
  (* Probes on the workload's most popular model. *)
  let stream = Workloads.make kind ~seed in
  let top = stream.Workloads.population.(0) in
  let opts = Model_spec.opts top in
  let d_top = Model_spec.build top in
  let build_ms = median_time (fun () -> Model_spec.build top) *. 1e3 in
  let kernel_ms =
    median_time (fun () -> Transient.make_kernel ~opts d_top.Discretized.generator) *. 1e3
  in
  let q = Transient.resolve_rate ~opts d_top.Discretized.generator in
  let window_times =
    match r.times_seen with [] -> Array.to_list Workloads.zipf_cdf_times | ts -> ts
  in
  let window_us =
    median_time (fun () ->
        List.iter
          (fun t ->
            ignore (Poisson.weights ~accuracy:opts.Solver_opts.accuracy (q *. t) : Poisson.t))
          window_times)
    *. 1e6
    /. float_of_int (List.length window_times)
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 r.flushes in
  let products = sum (fun f -> f.products) and touched = sum (fun f -> f.touched) in
  let nflushes = List.length r.flushes in
  (* Without a sweep in the replay (stats-pipelined), the sweep figures
     come from warm CDF flushes on the most popular model. *)
  let ns_per_product, ns_per_touched, words_per_product, swept_products =
    if products = 0 then sweep_probe top Workloads.zipf_cdf_times
    else begin
      let sweep_s =
        List.fold_left
          (fun acc f ->
            acc +. f.f_seconds
            -. (float_of_int f.kernel_builds *. kernel_ms /. 1e3)
            -. (float_of_int f.windows *. window_us /. 1e6))
          0. r.flushes
      in
      let steady = List.filter (fun f -> f.kernel_builds = 0 && f.windows = 0) r.flushes in
      let steady_products = List.fold_left (fun acc f -> acc + f.products) 0 steady in
      let words =
        if steady_products = 0 then
          let _, _, w, _ = sweep_probe top Workloads.zipf_cdf_times in
          w
        else
          List.fold_left (fun acc f -> acc +. f.minor_words) 0. steady
          /. float_of_int steady_products
      in
      ( sweep_s *. 1e9 /. float_of_int products,
        sweep_s *. 1e9 /. float_of_int touched,
        words,
        products )
    end
  in
  let lookups_hit =
    self_us
      ~only:(fun s -> Option.value (Hashtbl.find_opt r.lookup_hit s.rid) ~default:false)
      "cache.lookup"
  in
  (* cli-fig7: one seeded frequency per run. *)
  let frequency =
    cli_frequencies.(Batlife_numerics.Rng.int_below
                       (Batlife_numerics.Rng.create ~seed:(Int64.of_int seed) ())
                       (Array.length cli_frequencies))
  in
  let fig7 = cli_spec frequency in
  let d_fig7 = Model_spec.build fig7 in
  let cdf jobs =
    snd
      (time (fun () ->
           Lifetime.cdf ~opts:(Solver_opts.make ?jobs ()) ~delta:fig7.Model_spec.delta
             ~times:cli_times d_fig7.Discretized.model))
  in
  let cdf_default = cdf None and cdf_seq = cdf (Some 1) in
  let _, mean_s = time (fun () -> Discretized.expected_lifetime d_fig7) in
  let startup_s = median_time (fun () -> run_process batlife [ "--version" ]) in
  let table, solve_s =
    run_process batlife
      [ "lifetime"; "--model"; "onoff"; "-f"; Printf.sprintf "%g" frequency;
        "--capacity"; "7200"; "-c"; "1"; "-k"; "0"; "--delta"; "100";
        "--horizon"; "20000"; "--points"; "40" ]
  in
  let cli_problems =
    Oracle.cli_table_problems fig7 ~times:cli_times ~printed:(parse_table table)
  in
  let sessions_bytes =
    List.map (fun s -> float_of_int (Session.approx_bytes s)) r.sessions
  in
  let n_checked = List.length checked in
  let bad = List.filter (fun (_, ps) -> ps <> []) checked in
  let notes =
    cross
    @ List.map
        (fun ((q : Query.request), ps) ->
          Printf.sprintf "answer %s: %s" q.Query.id (String.concat "; " ps))
        bad
    @ List.map (fun p -> "cli-fig7 CDF table: " ^ p) cli_problems
  in
  let m = metric in
  let frames = r.frames and mreq = r.model_requests in
  let metrics =
    [
      m "query.decode_us" (per frames (Sample.sum (self_us "query.decode"))) frames;
      m "query.encode_us" (per frames (Sample.sum (self_us "query.encode"))) frames;
      m "query.response_bytes" (per frames (float_of_int r.response_bytes)) frames;
      m "server.health_rtt_us"
        (Sample.median (List.map snd health_units) *. 1e6)
        (List.length health_units);
      m "server.shed" (float_of_int (Timed.int_at [ "requests"; "shed" ] stats)) 1;
      m "server.queue_depth_p99"
        (Json.to_float ~field:"queue_depth_p99"
           (Timed.member [ "requests"; "queue_depth_p99" ] stats))
        1;
      m "service.batch_us_per_request" (service_batch_us stream.Workloads.population) 20;
      m "service.requests_per_sweep" (per nflushes (float_of_int mreq)) nflushes;
      m "model_spec.fingerprint_us"
        (per mreq (Sample.sum (self_us "model_spec.fingerprint")))
        mreq;
      m "cache.lookup_us" (per (List.length lookups_hit) (Sample.sum lookups_hit))
        (List.length lookups_hit);
      m "cache.hit_ratio" (per (r.hits + r.misses) (float_of_int r.hits)) (r.hits + r.misses);
      m "cache.evictions" (float_of_int r.evictions) 1;
      m "discretized.build_ms" build_ms 5;
      m "discretized.session_bytes"
        (per (List.length sessions_bytes) (Sample.sum sessions_bytes))
        (List.length sessions_bytes);
      m "transient.kernel_build_ms" kernel_ms 5;
      m "poisson.windows_per_request"
        (per mreq (float_of_int (sum (fun f -> f.windows))))
        mreq;
      m "poisson.window_us" window_us (List.length window_times);
      m "transient.products_per_request" (per mreq (float_of_int products)) mreq;
      m "transient.touched_nnz_per_request" (per mreq (float_of_int touched)) mreq;
      m "transient.ns_per_product" ns_per_product swept_products;
      m "transient.ns_per_touched_nnz" ns_per_touched swept_products;
      m "transient.minor_words_per_product" words_per_product swept_products;
      m "session.functionals_per_sweep" (per nflushes (float_of_int r.functionals)) nflushes;
      m "session.measure_eval_ms" (measure_eval_ms top) 3;
      m "session.readout_us" (per mreq (Sample.sum (self_us "session.readout"))) mreq;
      m "pool.parallel_over_sequential" (cdf_default /. cdf_seq) 1;
      m "lifetime.cdf_ms" (cdf_default *. 1e3) 1;
      m "iterative.expected_lifetime_ms" (mean_s *. 1e3) 1;
      m "cli.startup_ms" (startup_s *. 1e3) 5;
      m "cli.solve_ms" (solve_s *. 1e3) 1;
      m "trace.coverage_frac"
        (Sample.median r.covered_ns /. 1e6 /. socket_p50_ms)
        (List.length r.covered_ns);
      m "trace.overhead_frac" overhead (List.length r.units);
    ]
  in
  {
    Timed.metrics;
    extra = [];
    attempted = n_checked + 1;
    failed = List.length bad + (if cli_problems = [] then 0 else 1);
    correct = notes = [];
    notes;
    context =
      [
        ("jobs", Json.of_int (Timed.int_at [ "pool"; "jobs" ] stats));
        ("replay_units", Json.of_int (List.length r.units));
        ("spans", Json.Str spans_path);
        ("cli_frequency", Json.of_float frequency);
        ( "ledger",
          Json.Obj (List.map (fun (n, _, moves) -> (n, Json.Str moves)) ledger) );
      ];
  }
