(* The output check.  After the timed phase, every distinct
   (model, query) the run sent is recomputed in-process from the exact
   full-support kernel ([adaptive_support = false]): one
   [Transient.distribution_sweep] per model over the union of the
   query times, with the measures read off the full distributions by
   this module's own code.  Every served answer must then

   - be [ok] and carry the request's id (model queries also a
     ["cache"] member);
   - be finite, with probabilities in [0, 1] and CDFs non-decreasing
     in time, quantiles non-decreasing in p;
   - match the exact answer within these tolerances, where
     [acc = accuracy / 2 + float_slack] covers the adaptive kernel's
     pruned mass (capped at accuracy / 2) plus the different
     summation order of the oracle:
       CDF values, marginals, joint probabilities   |d| <= acc
       expected available charge                    |d| <= acc * capacity
       charge levels, model statistics              exact
       percentiles (inverse of a 20-24 point CDF)   |d| <= quantile_rel * horizon
       CLI CDF table (printed with 6 decimals)      |d| <= 5e-7 + acc *)

module Query = Batlife_service.Query
module Model_spec = Batlife_service.Model_spec
module Discretized = Batlife_core.Discretized
module Grid = Batlife_core.Grid
module Transient = Batlife_ctmc.Transient
module Solver_opts = Batlife_ctmc.Solver_opts

let float_slack = 1e-10
let quantile_rel = 1e-6

let exact_opts spec =
  { (Model_spec.opts spec) with Solver_opts.adaptive_support = false; jobs = Some 1 }

let prob_tol spec = ((exact_opts spec).Solver_opts.accuracy /. 2.) +. float_slack

(* A distinct query: the request without its id. *)
module Key = Hashtbl.Make (struct
  type t = Model_spec.t option * Query.payload

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

let key (r : Query.request) = (r.Query.model, r.Query.payload)

let percentile_times ~horizon ~points =
  Array.init points (fun i -> horizon *. float_of_int (i + 1) /. float_of_int points)

let query_times = function
  | Query.Cdf { times } -> Array.to_list times
  | Query.Measures { time; _ } -> [ time ]
  | Query.Percentiles { horizon; points; _ } ->
      Array.to_list (percentile_times ~horizon ~points)
  | Query.Stats | Query.Server_stats | Query.Prometheus | Query.Health -> []

(* Measures read off a full distribution [v] over the flat states. *)
let sum_where grid v pred =
  let acc = ref 0. in
  Array.iteri
    (fun idx p ->
      let state, j1, j2 = Grid.decompose grid idx in
      if pred ~state ~j1 ~j2 then acc := !acc +. p)
    v;
  !acc

let level_charge grid j1 = if j1 = 0 then 0. else Grid.level_value grid (j1 - 1)

let absorbed grid v = sum_where grid v (fun ~state:_ ~j1 ~j2:_ -> j1 = 0)

let measure_values grid v = function
  | Query.Expected_charge ->
      let acc = ref 0. in
      Array.iteri
        (fun idx p ->
          let _, j1, _ = Grid.decompose grid idx in
          acc := !acc +. (level_charge grid j1 *. p))
        v;
      [ ("expected_charge", [| !acc |]) ]
  | Query.Mode_marginal ->
      [
        ( "mode_marginal",
          Array.init grid.Grid.n_workload (fun m ->
              sum_where grid v (fun ~state ~j1:_ ~j2:_ -> state = m)) );
      ]
  | Query.Charge_marginal ->
      let levels = Array.init grid.Grid.levels1 Fun.id in
      [
        ("charge_levels", Array.map (level_charge grid) levels);
        ( "charge_marginal",
          Array.map
            (fun l -> sum_where grid v (fun ~state:_ ~j1 ~j2:_ -> j1 = l))
            levels );
      ]
  | Query.Joint { mode; min_charge } ->
      [
        ( "joint",
          [|
            sum_where grid v (fun ~state ~j1 ~j2:_ ->
                state = mode && j1 >= 1 && Grid.level_value grid (j1 - 1) >= min_charge);
          |] );
      ]

(* Exact answers for a list of requests of one model. *)
let exact_for_model spec (reqs : Query.request list) =
  let d = Model_spec.build spec in
  let grid = d.Discretized.grid in
  let opts = exact_opts spec in
  let times =
    List.concat_map (fun (r : Query.request) -> query_times r.Query.payload) reqs
    |> List.sort_uniq Float.compare |> Array.of_list
  in
  let dist =
    if times = [||] then fun _ -> assert false
    else begin
      let vs, _ =
        Transient.distribution_sweep ~opts d.Discretized.generator
          ~alpha:d.Discretized.alpha ~times
      in
      let table = Hashtbl.create (Array.length times) in
      Array.iteri (fun i t -> Hashtbl.replace table t vs.(i)) times;
      Hashtbl.find table
    end
  in
  let cdf ts = Array.map (fun t -> absorbed grid (dist t)) ts in
  List.map
    (fun (r : Query.request) ->
      let result =
        match r.Query.payload with
        | Query.Cdf { times } -> Query.Curve { times; probabilities = cdf times }
        | Query.Measures { time; measures } ->
            Query.Per_time
              { time; values = List.concat_map (measure_values grid (dist time)) measures }
        | Query.Percentiles { ps; horizon; points } ->
            let ts = percentile_times ~horizon ~points in
            let probabilities = cdf ts in
            Batlife_core.Lifetime.sanitize ts probabilities;
            let interp = Batlife_numerics.Interp.create ~xs:ts ~ys:probabilities in
            Query.Quantiles
              { ps; values = Array.map (Batlife_numerics.Interp.inverse interp) ps }
        | Query.Stats ->
            Query.Model_stats
              {
                states = Discretized.n_states d;
                nnz = Discretized.nnz d;
                unif_rate = Transient.resolve_rate ~opts d.Discretized.generator;
                fingerprint = Model_spec.fingerprint spec;
                kernel = None;
              }
        | Query.Health | Query.Server_stats | Query.Prometheus -> assert false
      in
      (key r, result))
    reqs

(* Exact answers for every distinct request, keyed by [key]. *)
let exact (reqs : Query.request list) =
  let distinct = Key.create 256 in
  List.iter (fun r -> Key.replace distinct (key r) r) reqs;
  let by_model = Hashtbl.create 64 and admin = ref [] in
  Key.iter
    (fun _ (r : Query.request) ->
      match r.Query.model with
      | None -> admin := r :: !admin
      | Some spec ->
          let fp = Model_spec.fingerprint spec in
          let spec, rs =
            Option.value (Hashtbl.find_opt by_model fp) ~default:(spec, [])
          in
          Hashtbl.replace by_model fp (spec, r :: rs))
    distinct;
  let table = Key.create 256 in
  Hashtbl.iter
    (fun _ (spec, rs) ->
      List.iter (fun (k, v) -> Key.replace table k v) (exact_for_model spec rs))
    by_model;
  List.iter
    (fun (r : Query.request) ->
      Key.replace table (key r) (Query.Health_report { status = "ok"; uptime_s = 0. }))
    !admin;
  table

let finite a = Array.for_all Float.is_finite a

let non_decreasing a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(i - 1) then ok := false
  done;
  !ok

let max_diff a b =
  if Array.length a <> Array.length b then Float.infinity
  else begin
    let m = ref 0. in
    Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
    !m
  end

let in_unit a = Array.for_all (fun p -> p >= 0. && p <= 1.) a

(* Problems with one served response, [] when it passes. *)
let problems ~exact (r : Query.request) (resp : Query.response) =
  let spec = r.Query.model in
  let tol = match spec with Some s -> prob_tol s | None -> 0. in
  let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
  let id_problems =
    if resp.Query.r_id <> r.Query.id then fail "answer id %S" resp.Query.r_id else []
  and cache_problems =
    match (spec, resp.Query.cache) with
    | Some _, Some ("hit" | "miss") | None, None -> []
    | _ -> fail "cache member"
  in
  let value_problems =
    match (resp.Query.result, Key.find_opt exact (key r)) with
    | Error e, _ -> fail "error %s: %s" e.Query.kind e.Query.message
    | Ok _, None -> fail "no exact answer"
    | Ok got, Some want -> (
        match (got, want) with
        | ( Query.Curve { times; probabilities = p },
            Query.Curve { times = want_times; probabilities = e } ) ->
            if times <> want_times then fail "cdf times"
            else if not (finite p && in_unit p) then fail "cdf value outside [0, 1]"
            else if not (non_decreasing p) then fail "non-monotone cdf"
            else if max_diff p e > tol then fail "cdf off by %g" (max_diff p e)
            else []
        | Query.Quantiles { ps; values }, Query.Quantiles { values = e; _ } ->
            let horizon =
              match r.Query.payload with
              | Query.Percentiles { horizon; _ } -> horizon
              | _ -> 0.
            in
            if not (finite values) then fail "non-finite quantile"
            else if non_decreasing ps && not (non_decreasing values) then
              fail "quantiles not monotone in p"
            else if max_diff values e > quantile_rel *. horizon then
              fail "quantile off by %g" (max_diff values e)
            else []
        | Query.Per_time { time; values }, Query.Per_time { time = want_time; values = e }
          ->
            if time <> want_time || List.map fst values <> List.map fst e then
              fail "measure names or time"
            else
              List.concat_map
                (fun ((name, v), (_, w)) ->
                  let bound =
                    match (name, spec) with
                    | "charge_levels", _ -> 0.
                    | "expected_charge", Some s -> tol *. s.Model_spec.capacity
                    | _ -> tol
                  in
                  if not (finite v) then fail "non-finite %s" name
                  else if
                    (name = "mode_marginal" || name = "charge_marginal" || name = "joint")
                    && not (in_unit v)
                  then fail "%s outside [0, 1]" name
                  else if max_diff v w > bound then
                    fail "%s off by %g" name (max_diff v w)
                  else [])
                (List.combine values e)
        | ( Query.Model_stats { states; nnz; unif_rate; fingerprint; _ },
            Query.Model_stats w ) ->
            if
              states <> w.states || nnz <> w.nnz || unif_rate <> w.unif_rate
              || fingerprint <> w.fingerprint
            then fail "model statistics differ"
            else []
        | Query.Health_report { status; uptime_s }, Query.Health_report _ ->
            if status <> "ok" || not (Float.is_finite uptime_s) then fail "health %S" status
            else []
        | _ -> fail "result kind")
  in
  id_problems @ cache_problems @ value_problems

(* The CLI's CDF table against the exact CDF on the same grid. *)
let cli_table_problems spec ~times ~printed =
  let want =
    match exact_for_model spec [ { Query.id = ""; model = Some spec;
                                   payload = Query.Cdf { times }; deadline_s = None } ]
    with
    | [ (_, Query.Curve { probabilities; _ }) ] -> probabilities
    | _ -> assert false
  in
  if Array.length printed <> Array.length times then [ "table length" ]
  else
    let got = Array.map snd printed in
    if Array.map fst printed <> times then [ "table times" ]
    else if not (finite got && in_unit got && non_decreasing got) then
      [ "table not a CDF" ]
    else
      let d = max_diff got want in
      if d > 5e-7 +. prob_tol spec then [ Printf.sprintf "table off by %g" d ] else []
