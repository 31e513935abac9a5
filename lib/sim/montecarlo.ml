module Diag = Batlife_numerics.Diag
module Progress = Batlife_numerics.Progress
module Rng = Batlife_numerics.Rng

type estimate = {
  times : float array;
  cdf : float array;
  ci_low : float array;
  ci_high : float array;
  runs : int;
  censored : int;
  samples : float array;
}

let default_runs = 1000

type progress = {
  mp_target : int;
  mp_done : int;
  mp_censored : int;
  mp_died : float list;  (* newest first — the accumulation order *)
  mp_rng : int64 array;  (* master generator state before the next split *)
}

(* Resuming restores the master generator's exact state plus the
   accumulated outcomes, so the remaining replications draw the exact
   streams the uninterrupted run would have drawn: the final estimate
   is bitwise identical (the sample list even preserves accumulation
   order, so order-sensitive float summations downstream agree too). *)
let run_replications ?(seed = 0x0BA77E7AL) ?(progress = Progress.none) ~runs
    ~horizon model =
  let { Progress.on_step; on_interrupt; resume } = progress in
  if runs <= 0 then
    Diag.invalid_model ~what:"Montecarlo replication count"
      [ Printf.sprintf "runs = %d; need runs > 0" runs ];
  let sim = Trajectory.prepare model in
  let died = ref [] and censored = ref 0 in
  let master, start =
    match resume with
    | None -> (Rng.create ~seed (), 0)
    | Some r ->
        if r.mp_target <> runs then
          Diag.invalid_model ~what:"Montecarlo resume"
            [
              Printf.sprintf
                "snapshot was taken for %d replications but this run asks for \
                 %d"
                r.mp_target runs;
            ];
        if
          r.mp_done < 0 || r.mp_done > runs
          || List.length r.mp_died + r.mp_censored <> r.mp_done
        then
          Diag.invalid_model ~what:"Montecarlo resume"
            [
              Printf.sprintf
                "inconsistent snapshot: done = %d, died = %d, censored = %d"
                r.mp_done (List.length r.mp_died) r.mp_censored;
            ];
        died := r.mp_died;
        censored := r.mp_censored;
        (Rng.of_state r.mp_rng, r.mp_done)
  in
  let snapshot_at k () =
    {
      mp_target = runs;
      mp_done = k;
      mp_censored = !censored;
      mp_died = !died;
      mp_rng = Rng.state master;
    }
  in
  let budget = Batlife_numerics.Budget.ambient () in
  let what = "Montecarlo.run_replications" in
  for k = start + 1 to runs do
    Batlife_numerics.Budget.note_product budget;
    (match Batlife_numerics.Budget.peek ~what budget with
    | None -> ()
    | Some e ->
        (match on_interrupt with
        | Some f -> f (snapshot_at (k - 1) ())
        | None -> ());
        Diag.fail e);
    (* A split stream per replication keeps replications independent
       of each other's consumption pattern. *)
    let rng = Rng.split master in
    (match Trajectory.run ~horizon sim rng with
    | Trajectory.Died t -> died := t :: !died
    | Trajectory.Survived _ -> incr censored);
    match on_step with
    | Some f -> f ~step:k ~snapshot:(snapshot_at k)
    | None -> ()
  done;
  (Array.of_list !died, !censored)

let lifetime_cdf ?seed ?(runs = default_runs) ?horizon ?(confidence = 0.95)
    ?progress model ~times =
  let horizon =
    match horizon with
    | Some h -> h
    | None -> 4. *. Array.fold_left Float.max 1. times
  in
  Array.iter
    (fun t ->
      if t > horizon then
        Diag.invalid_model ~what:"Montecarlo.lifetime_cdf time grid"
          [ Printf.sprintf "t = %g lies beyond the horizon %g" t horizon ])
    times;
  let samples, censored =
    run_replications ?seed ?progress ~runs ~horizon model
  in
  let nf = float_of_int runs in
  let cdf =
    Array.map
      (fun t ->
        let count =
          Array.fold_left
            (fun acc l -> if l <= t then acc + 1 else acc)
            0 samples
        in
        float_of_int count /. nf)
      times
  in
  let lows = Array.make (Array.length times) 0.
  and highs = Array.make (Array.length times) 0. in
  Array.iteri
    (fun i p ->
      let lo, hi =
        Stats.proportion_confidence_interval ~confidence ~p_hat:p runs
      in
      lows.(i) <- lo;
      highs.(i) <- hi)
    cdf;
  {
    times = Array.copy times;
    cdf;
    ci_low = lows;
    ci_high = highs;
    runs;
    censored;
    samples;
  }

let mean_lifetime ?seed ?(runs = default_runs) ?(horizon = 1e9) model =
  let samples, censored = run_replications ?seed ~runs ~horizon model in
  if censored > 0 then
    Diag.fail
      (Diag.Budget_exhausted
         {
           what =
             Printf.sprintf
               "Montecarlo.mean_lifetime: %d of %d replications censored at \
                horizon %g; a mean over the survivors would be biased low \
                (increase ~horizon)"
               censored runs horizon;
           budget = runs;
         });
  let s = Stats.summarize samples in
  (s.Stats.mean, Stats.mean_confidence_interval samples)
