(* The lifetime-query service: the wire codec must round-trip every
   representable frame and never raise on garbage, the fingerprint
   cache must make repeat queries free of Q* constructions and kernel
   builds (asserted through the always-on telemetry counters), batches
   against one model must share one sweep, per-request deadlines must
   surface as structured budget errors, and the fd server must answer
   every line in order. *)

open Helpers
module Telemetry = Batlife_numerics.Telemetry
module Model_spec = Batlife_service.Model_spec
module Query = Batlife_service.Query
module Service = Batlife_service.Service
module Cache = Batlife_service.Cache
module Server = Batlife_service.Server

(* ------------------------------------------------------------------ *)
(* Generators.  Floats are built as m * 2^e so every generated value
   is a finite double that the %.17g codec reproduces bit-exactly. *)

let gen_float =
  QCheck.Gen.(
    map2
      (fun m e -> Float.ldexp (float_of_int m) e)
      (int_range (-1_000_000) 1_000_000)
      (int_range (-20) 20))

let gen_pos_float = QCheck.Gen.map (fun x -> Float.abs x +. 1.) gen_float
let gen_name = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 6))

let gen_workload =
  QCheck.Gen.(
    frequency
      [
        (2, return Model_spec.Simple);
        (2, return Model_spec.Burst);
        ( 3,
          map2
            (fun frequency k ->
              Model_spec.Onoff { frequency; k; on_current = 0.96 })
            gen_pos_float (int_range 1 4) );
        ( 1,
          let* names = list_size (int_range 1 3) gen_name in
          let* currents = list_size (return (List.length names)) gen_float in
          let states = List.combine names currents in
          let* rates = list_size (return (List.length names)) gen_pos_float in
          let transitions =
            List.map2 (fun (a, _) r -> (a, fst (List.hd states), r)) states
              rates
          in
          return
            (Model_spec.Custom
               { states; transitions; initial = fst (List.hd states) }) );
      ])

let gen_spec =
  QCheck.Gen.(
    let* workload = gen_workload in
    let* capacity = gen_pos_float in
    let* c = gen_pos_float in
    let* k = gen_float in
    let* delta = gen_pos_float in
    let* accuracy = opt gen_pos_float in
    return { Model_spec.workload; capacity; c; k; delta; accuracy })

let gen_measure =
  QCheck.Gen.(
    frequency
      [
        (2, return Query.Expected_charge);
        (2, return Query.Mode_marginal);
        (2, return Query.Charge_marginal);
        ( 1,
          map2
            (fun mode min_charge -> Query.Joint { mode; min_charge })
            (int_range 0 3) gen_float );
      ])

let gen_float_array =
  QCheck.Gen.(map Array.of_list (list_size (int_range 0 5) gen_float))

let gen_payload =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun times -> Query.Cdf { times }) gen_float_array);
        ( 2,
          map2
            (fun time measures -> Query.Measures { time; measures })
            gen_float
            (list_size (int_range 0 4) gen_measure) );
        ( 2,
          map3
            (fun ps horizon points -> Query.Percentiles { ps; horizon; points })
            gen_float_array gen_pos_float (int_range 2 40) );
        (1, return Query.Stats);
      ])

let gen_admin_payload =
  QCheck.Gen.(
    frequency
      [
        (1, return Query.Server_stats);
        (1, return Query.Prometheus);
        (1, return Query.Health);
      ])

let gen_request =
  QCheck.Gen.(
    let* id = string_printable in
    let* deadline_s = opt gen_pos_float in
    let* admin = frequency [ (5, return false); (1, return true) ] in
    if admin then
      let* payload = gen_admin_payload in
      (* Admin frames may also carry a model; both round-trip. *)
      let* model = opt gen_spec in
      return { Query.id; model; payload; deadline_s }
    else
      let* model = gen_spec in
      let* payload = gen_payload in
      return { Query.id; model = Some model; payload; deadline_s })

let gen_result =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map2
            (fun times probabilities -> Query.Curve { times; probabilities })
            gen_float_array gen_float_array );
        ( 2,
          map2
            (fun time values -> Query.Per_time { time; values })
            gen_float
            (list_size (int_range 0 3) (pair gen_name gen_float_array)) );
        ( 2,
          map2
            (fun ps values -> Query.Quantiles { ps; values })
            gen_float_array gen_float_array );
        ( 1,
          let* states = int_range 1 10_000 in
          let* nnz = int_range 1 100_000 in
          let* unif_rate = gen_pos_float in
          let* kernel =
            opt
              (let* k_touched_nnz = int_range 0 1_000_000 in
               let* k_active_rows = int_range 0 1_000_000 in
               let* k_support_lo = int_range 0 5_000 in
               let* k_support_hi = int_range 0 10_000 in
               let* k_skipped_mass = gen_pos_float in
               return
                 {
                   Query.k_touched_nnz;
                   k_active_rows;
                   k_support_lo;
                   k_support_hi;
                   k_skipped_mass;
                 })
          in
          return
            (Query.Model_stats
               {
                 states;
                 nnz;
                 unif_rate;
                 fingerprint = "deadbeefdeadbeef";
                 kernel;
               }) );
      ])

let gen_response =
  QCheck.Gen.(
    let* r_id = string_printable in
    let* cache = oneof [ return None; return (Some "hit"); return (Some "miss") ] in
    let* result =
      frequency
        [
          (3, map Result.ok gen_result);
          ( 1,
            map3
              (fun kind message retry_after_s ->
                Error { Query.kind; code = 4; message; retry_after_s })
              gen_name string_printable (opt gen_pos_float) );
        ]
    in
    return { Query.r_id; cache; result })

(* ------------------------------------------------------------------ *)
(* Codec round-trips. *)

let request_roundtrip =
  qcheck ~count:300 "request codec round-trips"
    (QCheck.make ~print:Query.request_to_line gen_request)
    (fun r ->
      match Query.request_of_line (Query.request_to_line r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Query.message)

let response_roundtrip =
  qcheck ~count:300 "response codec round-trips"
    (QCheck.make ~print:Query.response_to_line gen_response)
    (fun r ->
      match Query.response_of_line (Query.response_to_line r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e.Query.message)

let decoder_never_raises =
  qcheck ~count:500 "request decoder never raises" QCheck.string (fun s ->
      match Query.request_of_line s with Ok _ | Error _ -> true)

(* Malformed frames come back as structured parse errors carrying the
   exit-4 code, never as exceptions. *)
let test_malformed_frames () =
  let expect_parse_error name line =
    match Query.request_of_line line with
    | Ok _ -> Alcotest.failf "%s: decoded a malformed frame" name
    | Error e ->
        check_int (name ^ ": code") 4 e.Query.code;
        check_true (name ^ ": kind") (e.Query.kind = "parse_error")
  in
  expect_parse_error "empty" "";
  expect_parse_error "not json" "not json at all";
  expect_parse_error "wrong type" "[1,2,3]";
  expect_parse_error "missing fields" "{}";
  expect_parse_error "bad version"
    {|{"v":"batlife.query/9","id":"x","model":{},"query":{"kind":"stats"}}|};
  expect_parse_error "unknown query kind"
    {|{"v":"batlife.query/1","id":"x","model":{"workload":{"kind":"simple"},"battery":{"capacity":7200,"c":1,"k":0},"delta":300},"query":{"kind":"nope"}}|};
  expect_parse_error "ill-typed times"
    {|{"v":"batlife.query/1","id":"x","model":{"workload":{"kind":"simple"},"battery":{"capacity":7200,"c":1,"k":0},"delta":300},"query":{"kind":"cdf","times":"soon"}}|}

(* ------------------------------------------------------------------ *)
(* The service proper. *)

let fig7_spec ?(capacity = 7200.) () =
  {
    Model_spec.workload =
      Model_spec.Onoff { frequency = 1.0; k = 1; on_current = 0.96 };
    capacity;
    c = 1.0;
    k = 0.0;
    delta = 300.;
    accuracy = None;
  }

let cdf_request ?deadline_s ?(spec = fig7_spec ()) id =
  {
    Query.id;
    model = Some spec;
    payload = Query.Cdf { times = [| 5000.; 10000. |] };
    deadline_s;
  }

let counter name = Telemetry.value (Telemetry.counter name)

let ok_exn name (r : Query.response) =
  match r.Query.result with
  | Ok result -> result
  | Error e -> Alcotest.failf "%s: unexpected error: %s" name e.Query.message

(* The tentpole guarantee: a repeat query is answered from the interned
   session -- zero Q* constructions, zero kernel builds, one more cache
   hit.  (A sweep still runs: results are not memoised, models are.) *)
let test_repeat_query_interns () =
  let svc = Service.create ~cache_capacity:4 () in
  let r1 = Service.handle svc (cdf_request "first") in
  check_true "first is a miss" (r1.Query.cache = Some "miss");
  let builds0 = counter "discretized.builds"
  and session_kernels0 = counter "session.kernel_builds"
  and transient_kernels0 = counter "transient.kernel_builds"
  and hits0 = counter "session.cache_hit" in
  let r2 = Service.handle svc (cdf_request "second") in
  check_true "second is a hit" (r2.Query.cache = Some "hit");
  check_int "zero Q* constructions" 0 (counter "discretized.builds" - builds0);
  check_int "zero session kernel builds" 0
    (counter "session.kernel_builds" - session_kernels0);
  check_int "zero transient kernel builds" 0
    (counter "transient.kernel_builds" - transient_kernels0);
  check_int "one more cache hit" 1 (counter "session.cache_hit" - hits0);
  check_true "identical answers" (ok_exn "first" r1 = ok_exn "second" r2);
  check_int "cache holds one entry" 1 (Cache.size (Service.cache svc))

(* Same-model queries in one batch share a single sweep; distinct
   models pay one each. *)
let test_batch_shares_sweep () =
  let svc = Service.create ~cache_capacity:4 () in
  (* Intern the model first so the batch measures only sweeps. *)
  ignore (Service.handle svc (cdf_request "warm") : Query.response);
  let sweeps0 = counter "transient.sweeps" in
  let responses =
    Service.handle_batch svc
      [
        cdf_request "a";
        {
          Query.id = "b";
          model = Some (fig7_spec ());
          payload =
            Query.Measures
              { time = 10000.; measures = [ Query.Expected_charge ] };
          deadline_s = None;
        };
      ]
  in
  check_int "one sweep for a same-model batch" 1
    (counter "transient.sweeps" - sweeps0);
  check_true "responses in request order"
    (List.map (fun r -> r.Query.r_id) responses = [ "a"; "b" ]);
  List.iteri (fun i r -> ignore (ok_exn (string_of_int i) r)) responses;
  let sweeps1 = counter "transient.sweeps" in
  let distinct =
    Service.handle_batch svc
      [
        cdf_request "c";
        cdf_request ~spec:(fig7_spec ~capacity:6000. ()) "d";
      ]
  in
  List.iteri (fun i r -> ignore (ok_exn (string_of_int i) r)) distinct;
  check_int "two sweeps for a two-model batch" 2
    (counter "transient.sweeps" - sweeps1)

(* A hopeless deadline surfaces as the structured exit-7 error; the
   service survives and answers the next request normally. *)
let test_deadline_exhaustion () =
  let svc = Service.create ~cache_capacity:4 () in
  let r = Service.handle svc (cdf_request ~deadline_s:1e-9 "tight") in
  (match r.Query.result with
  | Ok _ -> Alcotest.fail "a 1 ns deadline produced an answer"
  | Error e ->
      check_int "budget exit code" 7 e.Query.code;
      check_true "budget kind" (e.Query.kind = "budget_exhausted"));
  ignore (ok_exn "after deadline" (Service.handle svc (cdf_request "retry")))

(* An unbuildable model is a structured invalid_model response, not an
   exception and not a poisoned cache entry. *)
let test_invalid_model_response () =
  let spec = { (fig7_spec ()) with Model_spec.capacity = -5. } in
  let svc = Service.create ~cache_capacity:4 () in
  let r = Service.handle svc (cdf_request ~spec "bad") in
  (match r.Query.result with
  | Ok _ -> Alcotest.fail "negative capacity produced an answer"
  | Error e -> check_int "invalid-model exit code" 3 e.Query.code);
  check_int "nothing cached" 0 (Cache.size (Service.cache svc))

(* Feed [input] through [Server.serve_fd] over pipes and decode every
   response line — the harness behind the wire-loop tests. *)
let pipe_serve ?limits ?drain ?max_batch svc input =
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let n = Unix.write_substring in_w input 0 (String.length input) in
  check_int "wrote the whole input" (String.length input) n;
  Unix.close in_w;
  Server.serve_fd ?limits ?drain ?max_batch svc ~in_fd:in_r ~out_fd:out_w;
  Unix.close in_r;
  Unix.close out_w;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain_out () =
    let k = Unix.read out_r chunk 0 (Bytes.length chunk) in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      drain_out ()
    end
  in
  drain_out ();
  Unix.close out_r;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Query.response_of_line l with
         | Ok r -> r
         | Error e ->
             Alcotest.failf "undecodable response: %s" e.Query.message)

(* serve_fd: every line gets exactly one response, in order, with
   malformed frames answered in place. *)
let test_serve_fd_pipe () =
  let svc = Service.create ~cache_capacity:4 () in
  let input =
    String.concat ""
      [
        Query.request_to_line (cdf_request "one");
        "garbage\n";
        Query.request_to_line (cdf_request "two");
      ]
  in
  let decoded = pipe_serve svc input in
  check_int "one response per line" 3 (List.length decoded);
  check_true "responses in request order"
    (List.map (fun r -> r.Query.r_id) decoded = [ "one"; ""; "two" ]);
  match (List.nth decoded 1).Query.result with
  | Ok _ -> Alcotest.fail "garbage line produced an answer"
  | Error e -> check_int "garbage line exit code" 4 e.Query.code

(* ------------------------------------------------------------------ *)
(* Overload hardening: the overloaded error class, admission control,
   connection guards, cache eviction policy and graceful drain. *)

module Drain = Batlife_service.Drain
module Obs = Batlife_service.Obs

let spec_freq f =
  {
    (fig7_spec ()) with
    Model_spec.workload = Model_spec.Onoff { frequency = f; k = 1; on_current = 0.96 };
  }

let health_request id =
  { Query.id; model = None; payload = Query.Health; deadline_s = None }

(* The overloaded class: stable code 9, retryable, and the only error
   whose retry_after_s survives the wire round-trip. *)
let test_overloaded_frame () =
  check_int "stable code" 9 Query.overloaded_code;
  let e = Query.overloaded_error ~retry_after_s:0.25 "queue full" in
  check_int "code" Query.overloaded_code e.Query.code;
  check_true "kind" (e.Query.kind = "overloaded");
  check_true "retry hint" (e.Query.retry_after_s = Some 0.25);
  let line =
    Query.response_to_line { Query.r_id = "q9"; cache = None; result = Error e }
  in
  (match Query.response_of_line line with
  | Ok { Query.result = Error e'; _ } ->
      check_true "retry_after_s round-trips" (e' = e)
  | Ok _ -> Alcotest.fail "overloaded frame decoded as a success"
  | Error d -> Alcotest.failf "overloaded frame undecodable: %s" d.Query.message);
  check_true "protocol errors carry no retry hint"
    ((Query.protocol_error "x").Query.retry_after_s = None)

(* LRU at capacity 1: every insertion evicts the previous resident and
   a re-request pays a fresh miss. *)
let test_cache_lru_capacity_one () =
  let c = Cache.create ~capacity:1 () in
  let miss0 = counter "session.cache_miss"
  and evc0 = counter "session.cache_evictions_capacity" in
  ignore (Cache.find_or_build c (spec_freq 1.0));
  ignore (Cache.find_or_build c (spec_freq 2.0));
  check_int "one resident" 1 (Cache.size c);
  check_int "one capacity eviction" 1
    (counter "session.cache_evictions_capacity" - evc0);
  let _, status = Cache.find_or_build c (spec_freq 1.0) in
  check_true "evicted entry misses again" (status = `Miss);
  check_int "three misses" 3 (counter "session.cache_miss" - miss0)

(* The service fingerprints a request once, to group its batch, and
   hands that key to the cache: an entry interned under the passed key
   keeps it and is found again by the spec alone. *)
let test_cache_passed_fingerprint () =
  let c = Cache.create ~capacity:2 () in
  let spec = spec_freq 1.0 in
  let key = Model_spec.fingerprint spec in
  let entry, status = Cache.find_or_build ~fingerprint:key c spec in
  check_true "the first lookup misses" (status = `Miss);
  Alcotest.(check string) "the entry keeps the key" key entry.Cache.fingerprint;
  let _, again = Cache.find_or_build c spec in
  check_true "the spec alone finds it" (again = `Hit)

(* LRU at capacity 2: touching an entry protects it; the least
   recently used one goes. *)
let test_cache_lru_capacity_two () =
  let c = Cache.create ~capacity:2 () in
  ignore (Cache.find_or_build c (spec_freq 1.0));
  ignore (Cache.find_or_build c (spec_freq 2.0));
  let _, a = Cache.find_or_build c (spec_freq 1.0) in
  check_true "touch hits" (a = `Hit);
  ignore (Cache.find_or_build c (spec_freq 3.0));
  let _, a' = Cache.find_or_build c (spec_freq 1.0) in
  check_true "recently-touched entry survives" (a' = `Hit);
  let _, b = Cache.find_or_build c (spec_freq 2.0) in
  check_true "least-recently-used entry was evicted" (b = `Miss)

(* Byte budget: with room for one session but not two, the budget pass
   evicts the LRU entry (counted under the bytes reason) and leaves
   the resident estimate within budget. *)
let test_cache_byte_budget () =
  let probe = Cache.create ~capacity:4 () in
  ignore (Cache.find_or_build probe (spec_freq 1.0));
  Cache.enforce_budget probe;
  let one = Cache.resident_bytes probe in
  check_true "session estimate is positive" (one > 0);
  let budget = one + (one / 2) in
  let c = Cache.create ~capacity:8 ~max_bytes:budget () in
  check_true "budget is visible" (Cache.max_bytes c = Some budget);
  ignore (Cache.find_or_build c (spec_freq 1.0));
  Cache.enforce_budget c;
  check_int "one session fits" 1 (Cache.size c);
  ignore (Cache.find_or_build c (spec_freq 2.0));
  let evb0 = counter "session.cache_evictions_bytes" in
  Cache.enforce_budget c;
  check_int "budget pass evicted one" 1
    (counter "session.cache_evictions_bytes" - evb0);
  check_int "back to one resident" 1 (Cache.size c);
  check_true "resident estimate within budget"
    (Cache.resident_bytes c <= budget);
  let _, survivor = Cache.find_or_build c (spec_freq 2.0) in
  check_true "most recent entry survived" (survivor = `Hit)

(* A session larger than the whole budget is still admitted and
   serves its batch; the budget pass then evicts it immediately,
   counted as a bytes eviction. *)
let test_cache_over_budget_session () =
  let svc = Service.create ~cache_capacity:4 ~cache_max_bytes:1 () in
  let evb0 = counter "session.cache_evictions_bytes" in
  ignore (ok_exn "over-budget session answers" (Service.handle svc (cdf_request "big")));
  check_int "evicted right after serving" 0 (Cache.size (Service.cache svc));
  check_true "counted as a bytes eviction"
    (counter "session.cache_evictions_bytes" - evb0 >= 1);
  ignore (ok_exn "rebuilds on demand" (Service.handle svc (cdf_request "again")))

(* Admission control through the wire loop: with a zero pending queue
   and batch size 1, a 5-frame burst admits the first and sheds the
   rest with structured code-9 responses carrying retry hints. *)
let test_admission_shed () =
  let svc = Service.create ~cache_capacity:4 () in
  let limits = { Server.default_limits with queue = 0 } in
  let shed0 = counter "service.shed" in
  let input =
    String.concat ""
      (List.init 5 (fun i ->
           Query.request_to_line (health_request (Printf.sprintf "h%d" i))))
  in
  let responses = pipe_serve ~limits ~max_batch:1 svc input in
  check_int "every frame answered" 5 (List.length responses);
  let by_id id = List.find (fun r -> r.Query.r_id = id) responses in
  ignore (ok_exn "admitted frame answered" (by_id "h0"));
  List.iter
    (fun i ->
      match (by_id (Printf.sprintf "h%d" i)).Query.result with
      | Ok _ -> Alcotest.failf "h%d: shed frame produced an answer" i
      | Error e ->
          check_int "shed code" Query.overloaded_code e.Query.code;
          check_true "shed kind" (e.Query.kind = "overloaded");
          check_true "shed retry hint present" (e.Query.retry_after_s <> None))
    [ 1; 2; 3; 4 ];
  check_int "shed counter moved" 4 (counter "service.shed" - shed0)

(* The frame-size guard: an endless line without a newline earns a
   structured code-4 goodbye and the drop, not unbounded buffering. *)
let test_oversized_frame_guard () =
  let svc = Service.create ~cache_capacity:4 () in
  let limits = { Server.default_limits with max_frame_bytes = 64 } in
  let responses = pipe_serve ~limits svc (String.make 200 'x') in
  match responses with
  | [ { Query.result = Error e; _ } ] ->
      check_int "goodbye code" 4 e.Query.code
  | rs -> Alcotest.failf "want one goodbye frame, got %d" (List.length rs)

(* The strike limit: each malformed frame is answered in place, and
   the limit ends the connection with a goodbye — later frames are
   never read. *)
let test_strike_limit () =
  let svc = Service.create ~cache_capacity:4 () in
  let limits = { Server.default_limits with max_strikes = 2; queue = 8 } in
  let responses =
    pipe_serve ~limits ~max_batch:1 svc "garbage one\ngarbage two\ngarbage three\n"
  in
  check_int "two strikes plus the goodbye" 3 (List.length responses);
  List.iter
    (fun r ->
      match r.Query.result with
      | Ok _ -> Alcotest.fail "garbage produced an answer"
      | Error e -> check_int "structured code" 4 e.Query.code)
    responses

(* A requested drain stops the wire loop from reading frames at all. *)
let test_drain_stops_reading () =
  let drain = Drain.create ~drain_s:60. () in
  Fun.protect ~finally:(fun () -> Drain.stop drain) @@ fun () ->
  Drain.request drain;
  let svc = Service.create ~cache_capacity:4 () in
  let responses =
    pipe_serve ~drain svc (Query.request_to_line (health_request "h"))
  in
  check_int "no frames read after drain" 0 (List.length responses)

(* Within the drain allowance the drain is invisible: an admitted
   batch answers bitwise-identically to an undisturbed run. *)
let test_drain_within_allowance () =
  let svc = Service.create ~cache_capacity:4 () in
  let base = ok_exn "undisturbed" (Service.handle svc (cdf_request "warm")) in
  let drain = Drain.create ~drain_s:60. () in
  Fun.protect ~finally:(fun () -> Drain.stop drain) @@ fun () ->
  Drain.request drain;
  let drained =
    match Service.handle_batch ~drain svc [ cdf_request "r" ] with
    | [ r ] -> ok_exn "drained" r
    | _ -> Alcotest.fail "one request, one response"
  in
  check_true "bitwise-identical in-flight response" (base = drained)

(* Past the drain deadline, in-flight work is cancelled into the
   structured exit-8 error rather than holding the process open. *)
let test_drain_past_deadline_cancels () =
  let drain = Drain.create ~drain_s:0.01 () in
  Fun.protect ~finally:(fun () -> Drain.stop drain) @@ fun () ->
  Drain.request drain;
  Unix.sleepf 0.05;
  let svc = Service.create ~cache_capacity:4 () in
  match Service.handle_batch ~drain svc [ cdf_request "late" ] with
  | [ { Query.result = Error e; _ } ] ->
      check_int "cancelled exit code" 8 e.Query.code;
      check_true "cancelled kind" (e.Query.kind = "cancelled")
  | [ { Query.result = Ok _; _ } ] ->
      Alcotest.fail "work past the drain deadline was not cancelled"
  | _ -> Alcotest.fail "one request, one response"

(* The retry hint: 50 ms until a batch latency distribution exists,
   then the rolling p90 (clamped below at 10 ms). *)
let test_retry_hint () =
  let obs = Obs.create () in
  check_true "cold default" (Obs.retry_hint_s obs = 0.05);
  for _ = 1 to 50 do
    Obs.note_batch obs ~latency_s:0.2
  done;
  let hint = Obs.retry_hint_s obs in
  check_true "hint tracks the p90 batch latency" (hint > 0.1 && hint < 0.4);
  Obs.note_queue_depth obs 7;
  check_true "queue depth p99 sees the sample" (Obs.queue_depth_p99 obs >= 6.)

let suite =
  [
    request_roundtrip;
    response_roundtrip;
    decoder_never_raises;
    case "malformed frames decode to parse errors" test_malformed_frames;
    case "repeat query: zero builds, zero kernels, one hit"
      test_repeat_query_interns;
    case "batch: same model shares one sweep" test_batch_shares_sweep;
    case "deadline exhaustion is a structured exit-7 error"
      test_deadline_exhaustion;
    case "invalid model is a structured exit-3 error"
      test_invalid_model_response;
    case "serve_fd answers every line in order" test_serve_fd_pipe;
    case "overloaded error: code 9, retryable, hint round-trips"
      test_overloaded_frame;
    case "cache: LRU at capacity 1" test_cache_lru_capacity_one;
    case "cache: LRU at capacity 2 honours recency" test_cache_lru_capacity_two;
    case "cache: a passed fingerprint is the key" test_cache_passed_fingerprint;
    case "cache: byte budget evicts LRU within budget" test_cache_byte_budget;
    case "cache: over-budget session admitted, used, then evicted"
      test_cache_over_budget_session;
    case "admission: burst past the queue is shed with code 9"
      test_admission_shed;
    case "guard: oversized frame gets a structured goodbye"
      test_oversized_frame_guard;
    case "guard: strike limit drops the connection" test_strike_limit;
    case "drain: requested drain stops reading" test_drain_stops_reading;
    case "drain: in-flight work within the allowance is untouched"
      test_drain_within_allowance;
    case "drain: past the deadline cancels into exit-8"
      test_drain_past_deadline_cancels;
    case "obs: retry hint follows batch latency" test_retry_hint;
  ]
