(* The benchmark's workloads: model populations and seeded request
   streams.  Every stream is a pure function of the seed, so the timed
   run, its set-up repetitions and the traced replay all see the same
   frames.  All loops are closed: the client keeps [window] units in
   flight on one connection and sends the next only when one is
   answered. *)

module Query = Batlife_service.Query
module Model_spec = Batlife_service.Model_spec
module Rng = Batlife_numerics.Rng

type kind = Zipf_mix | Twowell_dashboard | Stats_pipelined

let kinds =
  [
    ("zipf-mix", Zipf_mix);
    ("twowell-dashboard", Twowell_dashboard);
    ("stats-pipelined", Stats_pipelined);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)

(* A unit is what the client writes in one go and times as one sample:
   one request, or a dashboard refresh of three frames for one model. *)
type unit_ = Query.request list

type t = {
  cache_capacity : int option;
      (** the daemon's [--cache-capacity]; [None] keeps its default *)
  window : int;  (** units in flight *)
  population : Model_spec.t array;
      (** every model the stream can name, most popular first *)
  warmup : unit_ list;
  next : unit -> unit_;  (** the timed stream, continuing after warm-up *)
}

let request id ?model payload =
  { Query.id; model; payload; deadline_s = None }

(* 8 switching frequencies x 6 capacities of the fig-7 style
   single-well on/off model (delta = 300: 38-50 states): the service
   benchmark's Zipf population with frequencies ten times lower.  A
   sweep's length grows with the frequency; at 0.25-2 Hz a run held
   only about 120 requests, too few for a steady median on this
   population's spread of costs. *)
let zipf_population =
  Array.init 48 (fun i ->
      {
        Model_spec.workload =
          Model_spec.Onoff
            {
              frequency = 0.025 +. (0.025 *. float_of_int (i mod 8));
              k = 1;
              on_current = 0.96;
            };
        capacity = 5400. +. (300. *. float_of_int (i / 8));
        c = 1.0;
        k = 0.0;
        delta = 300.;
        accuracy = None;
      })

let zipf_weights =
  Array.init (Array.length zipf_population) (fun i ->
      1. /. (float_of_int (i + 1) ** 1.1))

(* [n] indices with exactly the weights' proportions, the rounding
   shortfall going to the largest remainders. *)
let stratified weights n =
  let total = Array.fold_left ( +. ) 0. weights in
  let quota = Array.map (fun w -> w /. total *. float_of_int n) weights in
  let counts = Array.map truncate quota in
  let order = Array.init (Array.length weights) Fun.id in
  let remainder i = quota.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> Float.compare (remainder b) (remainder a)) order;
  for i = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(i)) <- counts.(order.(i)) + 1
  done;
  Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts))

(* The fig-2 battery (C = 7200 As, c = 0.625, k = 4.5e-5/s) under
   on/off loads, delta = 300: 320 states each.  The uniformisation rate
   grows with the switching frequency: at 0.5-4 Hz one refresh sweeps
   20k-150k steps and takes 1.5-11 s on two cores, so a run could not
   hold the 110 refreshes a p90 needs.  These frequencies are 40 times
   lower, on the same chain; the sweep still dominates a refresh. *)
let twowell_population =
  Array.map
    (fun frequency ->
      {
        Model_spec.workload =
          Model_spec.Onoff { frequency; k = 1; on_current = 0.96 };
        capacity = 7200.;
        c = 0.625;
        k = 4.5e-5;
        delta = 300.;
        accuracy = None;
      })
    [| 0.0125; 0.025; 0.05; 0.1 |]

(* A refresh of the f = 0.1 model sweeps about eight times as long as
   one of the f = 0.0125 model.  Drawn independently, the four costs
   would put the median on a boundary between two of them, where it
   jumps with the draw.  So refreshes come in seeded shuffles of a
   fixed block of 20 with these counts per model (15/45/25/15 %): the
   median lies inside the f = 0.025 share and the p90 inside the
   f = 0.1 share. *)
let twowell_block = [| 3; 9; 5; 3 |]

(* Times of the dashboard's CDF and measure frames: the 250 s grid on
   [4000, 16000].  The Fox-Glynn window cache stops growing once it
   has seen them all, and exact repeats of a refresh stay rare. *)
let dashboard_grid = Array.init 49 (fun i -> 4000. +. (250. *. float_of_int i))

let zipf_cdf_times = [| 5000.; 10000.; 15000. |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Draws from a fixed block in seeded shuffles, reshuffled each time it
   is used up.  A run then holds each value in the block's proportions
   whatever the seed, so its quantiles do not move with the draw; the
   seed only orders the draws. *)
let cycle rng block =
  let a = Array.copy block and pos = ref (Array.length block) in
  fun () ->
    if !pos = Array.length a then begin
      shuffle rng a;
      pos := 0
    end;
    incr pos;
    a.(!pos - 1)

let counter prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

(* Blocks of 200 requests: Zipf(1.1) popularity over the 48 models,
   and 70 % cdf / 20 % percentiles / 10 % stats, the mix of the service
   benchmark. *)
let zipf_mix ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let id = counter "q" in
  let model = cycle rng (stratified zipf_weights 200) in
  let payload =
    cycle rng
      (Array.concat
         [
           Array.make 140 (Query.Cdf { times = zipf_cdf_times });
           Array.make 40
             (Query.Percentiles { ps = [| 0.5; 0.9 |]; horizon = 25000.; points = 20 });
           Array.make 20 Query.Stats;
         ])
  in
  (* Warm-up fills the 16-entry cache with the 16 most popular models,
     in seeded order, so set-up does the same work for every seed. *)
  let head = Array.sub zipf_population 0 16 in
  shuffle rng head;
  let warmup =
    Array.to_list
      (Array.map
         (fun spec ->
           [ request (id ()) ~model:spec (Query.Cdf { times = zipf_cdf_times }) ])
         head)
  in
  {
    cache_capacity = Some 16;
    window = 1;
    population = zipf_population;
    warmup;
    next =
      (fun () ->
        let spec = zipf_population.(model ()) in
        [ request (id ()) ~model:spec (payload ()) ]);
  }

let twowell_dashboard ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let id = counter "d" in
  let grid_time () = dashboard_grid.(Rng.int_below rng (Array.length dashboard_grid)) in
  let refresh spec =
    let times =
      let picked = Array.copy dashboard_grid in
      shuffle rng picked;
      let t = Array.sub picked 0 3 in
      Array.sort Float.compare t;
      t
    in
    [
      request (id ()) ~model:spec (Query.Cdf { times });
      request (id ()) ~model:spec
        (Query.Percentiles
           { ps = [| 0.1; 0.5; 0.9 |]; horizon = 18000.; points = 24 });
      request (id ()) ~model:spec
        (Query.Measures
           {
             time = grid_time ();
             measures =
               [
                 Query.Expected_charge;
                 Query.Mode_marginal;
                 Query.Charge_marginal;
                 Query.Joint { mode = 1; min_charge = 1000. };
               ];
           });
    ]
  in
  let warmup = Array.to_list (Array.map refresh twowell_population) in
  let model =
    cycle rng (Array.concat (Array.to_list (Array.mapi (fun m n -> Array.make n m) twowell_block)))
  in
  let next () = refresh twowell_population.(model ()) in
  {
    cache_capacity = None;
    window = 1;
    population = twowell_population;
    warmup;
    next;
  }

let stats_pipelined ~seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) () in
  let id = counter "s" in
  let model = cycle rng (stratified zipf_weights 200) in
  let n = ref 0 in
  let next () =
    incr n;
    if !n mod 16 = 0 then [ request (id ()) Query.Health ]
    else [ request (id ()) ~model:zipf_population.(model ()) Query.Stats ]
  in
  {
    cache_capacity = Some (Array.length zipf_population);
    window = 32;
    population = zipf_population;
    warmup =
      Array.to_list
        (Array.map (fun spec -> [ request (id ()) ~model:spec Query.Stats ])
           zipf_population);
    next;
  }

let make kind ~seed =
  match kind with
  | Zipf_mix -> zipf_mix ~seed
  | Twowell_dashboard -> twowell_dashboard ~seed
  | Stats_pipelined -> stats_pipelined ~seed
