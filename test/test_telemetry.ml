(* The telemetry layer: gating, span nesting and self-time accounting,
   deterministic merged span order under the parallel fan-out, counter
   atomicity across domains, histogram bucket edges, and the headline
   contract that enabling telemetry never changes a result bit. *)

open Helpers
open Batlife_numerics
open Batlife_ctmc
open Batlife_core

(* Every test leaves the collector as it found it at suite entry:
   disabled and empty (other suites assert on freshly-reset counters,
   so leftover state would not break them, but a stray enabled flag
   would silently start recording spans everywhere). *)
let with_telemetry f =
  Telemetry.enable ();
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Enough work for a nonzero monotonic-clock reading. *)
let burn () =
  let acc = ref 0. in
  for i = 1 to 2000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* --- Gating ----------------------------------------------------------- *)

let test_disabled_is_passthrough () =
  Telemetry.disable ();
  Telemetry.reset ();
  let c = Telemetry.counter "test.gating.counter" in
  let g = Telemetry.gauge "test.gating.gauge" in
  let h = Telemetry.histogram "test.gating.hist" in
  let v =
    Telemetry.with_span "test.gating.span" (fun () ->
        Telemetry.incr c;
        Telemetry.set_gauge g 42.;
        Telemetry.observe h 5.;
        7)
  in
  check_int "with_span passes the result through" 7 v;
  (* Counters are the always-on work-accounting backbone... *)
  check_int "counter counts while disabled" 1 (Telemetry.value c);
  (* ...but gauges, histograms and spans are gated. *)
  check_float ~eps:0. "gauge not set while disabled" 0.
    (Telemetry.gauge_value g);
  let snap = Telemetry.snapshot () in
  check_true "no span recorded while disabled"
    (List.for_all
       (fun s -> s.Telemetry.sp_name <> "test.gating.span")
       snap.Telemetry.snap_spans);
  let hs =
    List.find
      (fun hs -> hs.Telemetry.hs_name = "test.gating.hist")
      snap.Telemetry.snap_histograms
  in
  check_int "no observation while disabled" 0 hs.Telemetry.hs_total

(* --- Span nesting ----------------------------------------------------- *)

let test_span_nesting_and_self_time () =
  with_telemetry @@ fun () ->
  let (), spans =
    Telemetry.capture (fun () ->
        Telemetry.with_span "outer" (fun () ->
            Telemetry.with_span "inner.a" burn;
            Telemetry.with_span "inner.b" burn))
  in
  match spans with
  | [ a; b; o ] ->
      (* Spans are recorded at completion: children first. *)
      Alcotest.(check string) "first completed" "inner.a" a.Telemetry.sp_name;
      Alcotest.(check string) "second completed" "inner.b" b.Telemetry.sp_name;
      Alcotest.(check string) "parent last" "outer" o.Telemetry.sp_name;
      check_int "parent depth" 0 o.Telemetry.sp_depth;
      check_int "child depth" 1 a.Telemetry.sp_depth;
      check_int "child depth" 1 b.Telemetry.sp_depth;
      let children = Int64.add a.Telemetry.sp_dur_ns b.Telemetry.sp_dur_ns in
      check_true "parent spans its children"
        (o.Telemetry.sp_dur_ns >= children);
      check_true "self = duration - children"
        (Int64.add o.Telemetry.sp_self_ns children = o.Telemetry.sp_dur_ns);
      check_true "leaf self-time is its whole duration"
        (a.Telemetry.sp_self_ns = a.Telemetry.sp_dur_ns)
  | spans ->
      Alcotest.failf "expected 3 spans, got %d" (List.length spans)

let test_capture_replay_roundtrip () =
  with_telemetry @@ fun () ->
  let names = [ "rt.a"; "rt.b"; "rt.c" ] in
  let (), spans =
    Telemetry.capture (fun () ->
        List.iter (fun n -> Telemetry.with_span n burn) names)
  in
  Alcotest.(check (list string)) "captured in completion order" names
    (List.map (fun s -> s.Telemetry.sp_name) spans);
  let before = Telemetry.snapshot () in
  check_true "capture kept the sink clean"
    (List.for_all
       (fun s -> not (List.mem s.Telemetry.sp_name names))
       before.Telemetry.snap_spans);
  Telemetry.replay spans;
  let after = Telemetry.snapshot () in
  let replayed =
    List.filter_map
      (fun s ->
        if List.mem s.Telemetry.sp_name names then Some s.Telemetry.sp_name
        else None)
      after.Telemetry.snap_spans
  in
  Alcotest.(check (list string)) "replayed in order" names replayed;
  (* The roll-up aggregates by name. *)
  let rows = Telemetry.rollup spans in
  check_int "one row per name" (List.length names) (List.length rows);
  List.iter (fun r -> check_int r.Telemetry.r_name 1 r.Telemetry.r_count) rows

(* --- Deterministic merged order under the experiment fan-out ---------- *)

let merged_par_names jobs =
  let opts = Solver_opts.make ~jobs () in
  let inputs = List.init 8 Fun.id in
  let results, spans =
    Telemetry.capture (fun () ->
        Batlife_experiments.Par.map ~opts
          (fun i ->
            Telemetry.with_span
              (Printf.sprintf "par.task.%d" i)
              (fun () ->
                Telemetry.with_span "par.sub" burn;
                i * i))
          inputs)
  in
  check_true "results in input order"
    (results = List.map (fun i -> i * i) inputs);
  List.map (fun s -> s.Telemetry.sp_name) spans

let test_par_merged_span_order () =
  with_telemetry @@ fun () ->
  let expected =
    List.concat_map
      (fun i -> [ "par.sub"; Printf.sprintf "par.task.%d" i ])
      (List.init 8 Fun.id)
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "merged span order is input order at jobs=%d" jobs)
        expected (merged_par_names jobs))
    [ 1; 2; 4 ]

(* --- Counter atomicity ------------------------------------------------ *)

let test_counter_atomic_under_forkjoin () =
  let c = Telemetry.counter "test.hammer" in
  let per_share = 20_000 in
  List.iter
    (fun jobs ->
      Telemetry.reset_counter c;
      let pool = Pool.get ~jobs in
      Pool.run pool (fun _ ->
          for _ = 1 to per_share do
            Telemetry.incr c
          done);
      check_int
        (Printf.sprintf "no lost increments at jobs=%d" jobs)
        (Pool.size pool * per_share)
        (Telemetry.value c))
    [ 1; 2; 4 ]

(* --- Histogram bucket edges ------------------------------------------- *)

let find_hist name =
  List.find
    (fun hs -> hs.Telemetry.hs_name = name)
    (Telemetry.snapshot ()).Telemetry.snap_histograms

let test_histogram_bucket_edges () =
  with_telemetry @@ fun () ->
  let h = Telemetry.histogram ~lo:1. ~hi:100. "test.hist.edges" in
  (* Log buckets from lo = 1 to hi = 100: values at or below lo share
     the first bucket, a value at hi lands in the last one, values past
     it overflow, and NaN is not counted. *)
  List.iter (Telemetry.observe h) [ 0.25; 1.0; 5.; 100.; 1000.; Float.nan ];
  let hs = find_hist "test.hist.edges" in
  let bounds = hs.Telemetry.hs_bounds and counts = hs.Telemetry.hs_counts in
  let nb = Array.length bounds in
  check_int "one count per bound plus the overflow" (nb + 1)
    (Array.length counts);
  check_float ~eps:0. "the first bound is lo" 1. bounds.(0);
  check_float ~eps:0. "the last bound is hi" 100. bounds.(nb - 1);
  for i = 1 to nb - 1 do
    check_true "the bounds strictly increase" (bounds.(i - 1) < bounds.(i))
  done;
  check_int "values <= lo share the first bucket" 2 counts.(0);
  check_int "a value at hi is in the last bucket" 1 counts.(nb - 1);
  check_int "past the last bound overflows" 1 counts.(nb);
  let i = ref 1 in
  while bounds.(!i) < 5. do incr i done;
  check_int "an in-range value lands in the bucket bounding it" 1 counts.(!i);
  check_int "NaN is not counted" 5 hs.Telemetry.hs_total;
  check_int "total is the sum of the counts" hs.Telemetry.hs_total
    (Array.fold_left ( + ) 0 counts);
  let iterations =
    (find_hist "transient.sweep_iterations").Telemetry.hs_bounds
  in
  check_float ~eps:0. "the sweep-iterations histogram ends at its hi" 1e7
    iterations.(Array.length iterations - 1);
  (* Sum and max. *)
  let h2 = Telemetry.histogram "test.hist.sum" in
  Telemetry.observe_int h2 3;
  Telemetry.observe_int h2 4;
  let hs2 = find_hist "test.hist.sum" in
  check_float ~eps:0. "sum" 7. hs2.Telemetry.hs_sum;
  check_float ~eps:0. "max" 4. hs2.Telemetry.hs_max;
  check_int "observe_int counts" 2 hs2.Telemetry.hs_total

(* --- Exporters -------------------------------------------------------- *)

let test_exporters_mention_recorded_data () =
  with_telemetry @@ fun () ->
  let (), spans =
    Telemetry.capture (fun () -> Telemetry.with_span "export.span" burn)
  in
  Telemetry.replay spans;
  Telemetry.incr (Telemetry.counter "test.export.counter");
  let snap = Telemetry.snapshot () in
  let metrics = Telemetry.metrics_json snap in
  check_true "metrics schema tag" (contains metrics "batlife.metrics/1");
  check_true "metrics has the counter" (contains metrics "test.export.counter");
  check_true "metrics has the span roll-up" (contains metrics "export.span");
  let trace = Telemetry.trace_json snap in
  check_true "trace has traceEvents" (contains trace "\"traceEvents\"");
  check_true "trace has the span" (contains trace "export.span");
  check_true "trace events are complete events" (contains trace "\"ph\": \"X\"")

(* --- Telemetry never changes results ---------------------------------- *)

let curve_bits (c : Lifetime.curve) =
  Array.map Int64.bits_of_float c.Lifetime.probabilities

let check_on_off_identical ~delta model =
  let times = [| 4000.; 8000.; 12000. |] in
  Telemetry.disable ();
  Telemetry.reset ();
  let solve jobs =
    Lifetime.cdf ~opts:(Solver_opts.make ~jobs ()) ~delta ~times model
  in
  let reference = curve_bits (solve 1) in
  with_telemetry (fun () ->
      List.iter
        (fun jobs ->
          let bits = curve_bits (solve jobs) in
          check_true
            (Printf.sprintf "telemetry on at jobs=%d is bitwise identical"
               jobs)
            (bits = reference))
        [ 1; 2; 4 ];
      check_true "the runs were recorded"
        ((Telemetry.snapshot ()).Telemetry.snap_spans <> []))

let test_on_off_identical_fig7 () =
  check_on_off_identical ~delta:100. (fig7_model ())

let test_on_off_identical_fig2_battery () =
  check_on_off_identical ~delta:200. (fig2_model ())

(* Random-generator property: recording spans and histograms must not
   perturb a single bit of a transient solve. *)
let prop_telemetry_preserves_bits =
  qcheck ~count:50 "telemetry on/off bitwise identical (random generators)"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 8)
           (triple (int_range 0 3) (int_range 0 3) (float_range 0.05 4.)))
        (pos_float_arb 0.01 5.))
    (fun (entries, t) ->
      let rates =
        List.filter_map
          (fun (i, j, r) -> if i <> j then Some (i, j, r) else None)
          entries
      in
      let g = Generator.of_rates ~n:4 rates in
      let alpha = [| 0.4; 0.3; 0.2; 0.1 |] in
      Telemetry.disable ();
      let off = Transient.solve g ~alpha ~t in
      Telemetry.enable ();
      let on =
        Fun.protect
          ~finally:(fun () ->
            Telemetry.disable ();
            Telemetry.reset ())
          (fun () -> Transient.solve g ~alpha ~t)
      in
      Array.for_all2
        (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
        off on)

let suite =
  [
    case "disabled probes are pass-through" test_disabled_is_passthrough;
    case "span nesting, depth and self-time" test_span_nesting_and_self_time;
    case "capture/replay round trip" test_capture_replay_roundtrip;
    case "merged span order deterministic at jobs=1/2/4"
      test_par_merged_span_order;
    case "counter atomic under fork-join hammer"
      test_counter_atomic_under_forkjoin;
    case "histogram bucket edges" test_histogram_bucket_edges;
    case "exporters mention recorded data" test_exporters_mention_recorded_data;
    case "on/off bitwise identical (fig-7 model)" test_on_off_identical_fig7;
    case "on/off bitwise identical (fig-2 battery)"
      test_on_off_identical_fig2_battery;
    prop_telemetry_preserves_bits;
  ]
