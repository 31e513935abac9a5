open Batlife_numerics
open Batlife_core

type t = { cache : Cache.t; jobs : int option; obs : Obs.t }

(* Every request that reaches the engine was, by definition, admitted;
   the shedding side of the pair ("service.shed") lives in Server,
   where frames are rejected before they get here. *)
let c_admitted = Telemetry.counter "service.admitted"

let create ?(cache_capacity = 32) ?cache_max_bytes ?jobs ?obs () =
  let obs = match obs with Some o -> o | None -> Obs.create ?jobs () in
  {
    cache = Cache.create ~capacity:cache_capacity ?max_bytes:cache_max_bytes ();
    jobs;
    obs;
  }

let cache t = t.cache
let obs t = t.obs

let invalid_argument_error msg =
  Query.error_of_diag
    (Diag.Invalid_model { what = "query"; violations = [ msg ] })

(* What one request registers on its group's session: a function of
   the swept results, forced only after the shared flush. *)
type pending_result = unit -> Query.result

let register_cdf session ~times : pending_result =
  let pending = Discretized.Session.empty_probability session ~times in
  fun () ->
    Query.Curve
      { times; probabilities = Discretized.Session.get pending }

let register_measures session ~time measures : pending_result =
  let open Discretized.Session in
  let parts =
    List.map
      (fun m ->
        match (m : Query.measure) with
        | Query.Expected_charge ->
            let p = expected_available_charge session ~time in
            fun () -> [ ("expected_charge", [| get p |]) ]
        | Query.Mode_marginal ->
            let p = mode_marginal session ~time in
            fun () -> [ ("mode_marginal", get p) ]
        | Query.Charge_marginal ->
            let p = available_charge_marginal session ~time in
            fun () ->
              let pairs = get p in
              [
                ("charge_levels", Array.map fst pairs);
                ("charge_marginal", Array.map snd pairs);
              ]
        | Query.Joint { mode; min_charge } ->
            let p = joint_probability session ~time ~mode ~min_charge in
            fun () -> [ ("joint", [| get p |]) ])
      measures
  in
  fun () ->
    Query.Per_time { time; values = List.concat_map (fun f -> f ()) parts }

let register_percentiles session ~ps ~horizon ~points : pending_result =
  let violations = ref [] in
  if points < 2 then
    violations :=
      Printf.sprintf "points = %d; need at least 2 CDF samples" points
      :: !violations;
  if not (Float.is_finite horizon) || horizon <= 0. then
    violations :=
      Printf.sprintf "horizon = %g; need a positive finite horizon" horizon
      :: !violations;
  Array.iter
    (fun p ->
      if not (p >= 0. && p <= 1.) then
        violations :=
          Printf.sprintf "percentile %g lies outside [0, 1]" p :: !violations)
    ps;
  if !violations <> [] then
    Diag.invalid_model ~what:"percentiles query" (List.rev !violations);
  let times =
    Array.init points (fun i ->
        horizon *. float_of_int (i + 1) /. float_of_int points)
  in
  let pending = Discretized.Session.empty_probability session ~times in
  fun () ->
    let probabilities = Array.copy (Discretized.Session.get pending) in
    Lifetime.sanitize times probabilities;
    let interp = Interp.create ~xs:times ~ys:probabilities in
    Query.Quantiles { ps; values = Array.map (Interp.inverse interp) ps }

let register (entry : Cache.entry) (r : Query.request) : pending_result =
  match r.Query.payload with
  | Query.Cdf { times } -> register_cdf entry.Cache.session ~times
  | Query.Measures { time; measures } ->
      register_measures entry.Cache.session ~time measures
  | Query.Percentiles { ps; horizon; points } ->
      register_percentiles entry.Cache.session ~ps ~horizon ~points
  | Query.Stats ->
      let states = Discretized.n_states entry.Cache.d
      and nnz = Discretized.nnz entry.Cache.d
      and unif_rate =
        Discretized.Session.uniformisation_rate entry.Cache.session
      in
      fun () ->
        (* Read inside the thunk, after the group's flush: a stats
           query batched with a CDF query reports the kernel telemetry
           of the sweep that just answered it. *)
        let kernel =
          match Discretized.Session.last_stats entry.Cache.session with
          | None -> None
          | Some (s : Batlife_ctmc.Transient.stats) ->
              Some
                {
                  Query.k_touched_nnz = s.Batlife_ctmc.Transient.touched_nnz;
                  k_active_rows = s.Batlife_ctmc.Transient.active_rows;
                  k_support_lo = s.Batlife_ctmc.Transient.support_lo;
                  k_support_hi = s.Batlife_ctmc.Transient.support_hi;
                  k_skipped_mass = s.Batlife_ctmc.Transient.skipped_mass;
                }
        in
        Query.Model_stats
          {
            states;
            nnz;
            unif_rate;
            fingerprint = entry.Cache.fingerprint;
            kernel;
          }
  | Query.Server_stats | Query.Prometheus | Query.Health ->
      (* Admin queries are split off before grouping. *)
      assert false

(* Run [f] under a request's trace context: spans and Diag notes it
   records carry the request id (the access log line carries the same
   id, which is how one slow request is reconstructed end-to-end). *)
let in_context rid f =
  Diag.with_context rid (fun () -> Telemetry.with_context rid f)

(* One fingerprint group: every member registers on the shared
   session, then ONE flush answers them all.  A member that fails at
   registration (bad mode index, bad percentile) gets its own error
   response and the rest of the group still sweeps; a flush failure
   (deadline, breakdown) is the answer for every swept member.
   Registration and forcing run under each member's own request id;
   the shared flush runs under the joined ids of the whole group. *)
let run_group ~budget (entry : Cache.entry) ~cache_status members =
  let registered =
    List.map
      (fun (idx, rid, (r : Query.request)) ->
        match in_context rid (fun () -> register entry r) with
        | force -> (idx, rid, r, Ok force)
        | exception Diag.Error e -> (idx, rid, r, Error (Query.error_of_diag e))
        | exception Invalid_argument msg ->
            (idx, rid, r, Error (invalid_argument_error msg)))
      members
  in
  let ctx = String.concat "+" (List.map (fun (_, rid, _) -> rid) members) in
  let flush =
    match
      Discretized.Session.run ?budget ~ctx entry.Cache.session
    with
    | (_ : Batlife_ctmc.Transient.stats) -> Ok ()
    | exception Diag.Error e -> Error (Query.error_of_diag e)
  in
  List.map
    (fun (idx, rid, (r : Query.request), reg) ->
      let result =
        match (reg, flush) with
        | Error e, _ -> Error e
        | Ok _, Error e -> Error e
        | Ok force, Ok () -> (
            match in_context rid force with
            | v -> Ok v
            | exception Diag.Error e -> Error (Query.error_of_diag e))
      in
      (idx, rid, r, { Query.r_id = r.Query.id; cache = Some cache_status; result }))
    registered

(* The group's budget and a release thunk.  Without a drain control
   this is the per-request deadline story alone.  With one, every
   group gets a budget (a pure cancel token when no deadline asked for
   one) registered for deadline cancellation: a SIGTERM arriving
   mid-flush can then end the sweep as a structured [Cancelled] once
   the drain allowance runs out. *)
let group_budget ?drain members =
  let deadline_budget =
    match
      List.filter_map (fun (_, _, r) -> r.Query.deadline_s) members
    with
    | [] -> None
    | deadlines ->
        let wall_s = List.fold_left Float.min Float.infinity deadlines in
        (* Budget.create rejects non-positive allowances; an absurd
           deadline is still a deadline, so clamp to "already expired
           at the first poll" rather than crash the group. *)
        Some (Budget.create ~wall_s:(Float.max wall_s 1e-9) ())
  in
  match drain with
  | None -> (deadline_budget, fun () -> ())
  | Some d ->
      let b =
        match deadline_budget with
        | Some b -> b
        | None -> Budget.create ()
      in
      Drain.register d b;
      (Some b, fun () -> Drain.unregister d b)

let answer_admin t (r : Query.request) =
  let cache_size = Cache.size t.cache
  and cache_capacity = Cache.capacity t.cache in
  match r.Query.payload with
  | Query.Server_stats ->
      Query.Service_stats
        { stats = Obs.stats_json t.obs ~cache_size ~cache_capacity }
  | Query.Prometheus ->
      Query.Text
        {
          format = "prometheus";
          text = Obs.prometheus t.obs ~cache_size ~cache_capacity;
        }
  | Query.Health ->
      Query.Health_report { status = "ok"; uptime_s = Obs.uptime_s t.obs }
  | Query.Cdf _ | Query.Measures _ | Query.Percentiles _ | Query.Stats ->
      assert false

let observation ~rid ~(r : Query.request) ~fingerprint
    ~(resp : Query.response) ~latency_s ~batch ~group ~phases :
    Obs.observation =
  let ok, code =
    match resp.Query.result with
    | Ok _ -> (true, 0)
    | Error e -> (false, e.Query.code)
  in
  {
    Obs.rid;
    id = r.Query.id;
    kind = Query.payload_kind r.Query.payload;
    fingerprint;
    cache = resp.Query.cache;
    ok;
    code;
    latency_s;
    batch;
    group;
    phases;
  }

let seconds_since t0 = Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e9

let handle_batch ?drain t requests =
  let batch_n = List.length requests in
  List.iter (fun _ -> Telemetry.incr c_admitted) requests;
  Obs.batch_begin t.obs batch_n;
  let batch_t0 = Telemetry.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Obs.note_batch t.obs ~latency_s:(seconds_since batch_t0);
      Obs.batch_end t.obs)
  @@ fun () ->
  let indexed = List.mapi (fun i r -> (i, Obs.next_rid t.obs, r)) requests in
  (* A batch running under an already-requested drain is the
     "finish in-flight work" phase: leave a note carrying the batch's
     request ids so the drain is reconstructible from the Diag
     stream. *)
  (match drain with
  | Some d when Drain.requested d && batch_n > 0 ->
      let ctx = String.concat "+" (List.map (fun (_, rid, _) -> rid) indexed) in
      Diag.with_context ctx (fun () ->
          Diag.record ~origin:"serve"
            (Printf.sprintf "drain: finishing in-flight batch of %d" batch_n))
  | _ -> ());
  (* Split the batch: admin queries are answered inline on the
     dispatch domain (after the model work, so a stats query batched
     behind real queries reports them); model queries group by
     fingerprint, preserving first-appearance order.  The cache is
     touched here, on the dispatch domain only. *)
  let admin, model_q =
    List.partition
      (fun (_, _, (r : Query.request)) -> Query.is_admin r.Query.payload)
      indexed
  in
  let order = ref [] and table = Hashtbl.create 8 in
  let missing_model = ref [] in
  List.iter
    (fun ((_, _, (r : Query.request)) as item) ->
      match r.Query.model with
      | None -> missing_model := item :: !missing_model
      | Some model ->
          let key = Model_spec.fingerprint model in
          (match Hashtbl.find_opt table key with
          | Some members -> members := item :: !members
          | None ->
              Hashtbl.add table key (ref [ item ]);
              order := key :: !order))
    model_q;
  let groups =
    List.rev_map
      (fun key ->
        let members = List.rev !(Hashtbl.find table key) in
        let _, _, (first : Query.request) = List.hd members in
        let model = Option.get first.Query.model in
        (* Interning happens on the dispatch domain, before the group's
           fan-out: run it under the joined request ids so a cache-miss
           Q* build is attributed to the group that triggered it. *)
        let ctx = String.concat "+" (List.map (fun (_, rid, _) -> rid) members) in
        match
          in_context ctx (fun () ->
              Cache.find_or_build ~fingerprint:key t.cache model)
        with
        | entry, status ->
            let cache_status =
              match status with `Hit -> "hit" | `Miss -> "miss"
            in
            (key, Ok (entry, cache_status), members)
        | exception Diag.Error e ->
            (key, Error (Query.error_of_diag e), members)
        | exception Invalid_argument msg ->
            (key, Error (invalid_argument_error msg), members))
      !order
    |> List.rev |> Array.of_list
  in
  (* Distinct models fan out across the pool; capture/replay keeps the
     merged Diag and Telemetry streams in batch order regardless of
     which domain evaluated which group. *)
  let pool =
    Pool.get ~jobs:(match t.jobs with Some j -> j | None -> Pool.default_jobs ())
  in
  let evaluated =
    Pool.map_array pool
      (fun (_, group, members) ->
        let t0 = Telemetry.now_ns () in
        let (rs, spans), events =
          Diag.capture (fun () ->
              Telemetry.capture (fun () ->
                  match group with
                  | Ok (entry, cache_status) ->
                      let budget, release = group_budget ?drain members in
                      Fun.protect ~finally:release (fun () ->
                          run_group ~budget entry ~cache_status members)
                  | Error e ->
                      List.map
                        (fun (idx, rid, (r : Query.request)) ->
                          ( idx,
                            rid,
                            r,
                            {
                              Query.r_id = r.Query.id;
                              cache = None;
                              result = Error e;
                            } ))
                        members))
        in
        (rs, spans, events, seconds_since t0))
      groups
  in
  (* Back on the dispatch domain: replay the captured streams in batch
     order, feed the observability plane (every member of a group is
     attributed the group's wall time — its query was answered by that
     evaluation), and log one access line per request. *)
  let responses = ref [] in
  Array.iteri
    (fun gi (rs, spans, events, latency_s) ->
      let key, group, members = groups.(gi) in
      Diag.replay events;
      Telemetry.replay spans;
      (match group with
      | Ok (entry, _) -> (
          match Discretized.Session.last_stats entry.Cache.session with
          | Some stats -> Obs.note_kernel t.obs stats
          | None -> ())
      | Error _ -> ());
      let phases = Telemetry.rollup spans in
      let gsize = List.length members in
      List.iter
        (fun (idx, rid, r, resp) ->
          Obs.record t.obs
            (observation ~rid ~r ~fingerprint:(Some key) ~resp ~latency_s
               ~batch:batch_n ~group:gsize ~phases);
          responses := (idx, resp) :: !responses)
        rs)
    evaluated;
  (* Byte-budget enforcement runs after the batch's model work (the
     sessions just grew by whatever kernels and windows the batch
     built) and before admin answers, so a trailing server_stats query
     reports the post-eviction resident set. *)
  Cache.enforce_budget t.cache;
  (* Model queries constructed without a model: API misuse, not wire
     input — the decoder already rejects such frames. *)
  List.iter
    (fun (idx, rid, (r : Query.request)) ->
      let resp =
        {
          Query.r_id = r.Query.id;
          cache = None;
          result =
            Error
              (Query.protocol_error
                 (Printf.sprintf "query kind %S requires a model"
                    (Query.payload_kind r.Query.payload)));
        }
      in
      Obs.record t.obs
        (observation ~rid ~r ~fingerprint:None ~resp ~latency_s:0.
           ~batch:batch_n ~group:1 ~phases:[]);
      responses := (idx, resp) :: !responses)
    !missing_model;
  List.iter
    (fun (idx, rid, (r : Query.request)) ->
      let t0 = Telemetry.now_ns () in
      let resp =
        { Query.r_id = r.Query.id; cache = None; result = Ok (answer_admin t r) }
      in
      let latency_s = seconds_since t0 in
      Obs.record t.obs
        (observation ~rid ~r ~fingerprint:None ~resp ~latency_s ~batch:batch_n
           ~group:1 ~phases:[]);
      responses := (idx, resp) :: !responses)
    admin;
  List.stable_sort (fun (a, _) (b, _) -> compare a b) !responses
  |> List.map snd

let handle t r =
  match handle_batch t [ r ] with
  | [ response ] -> response
  | _ -> assert false
