open Batlife_battery
module Diag = Batlife_numerics.Diag
module Rng = Batlife_numerics.Rng

let step_slot rng p ~load ~slot (s : Kibam.state) =
  let base = p.Modified_kibam.base in
  let delta = Kibam.height_difference base s in
  let flow =
    if delta > 0. then
      let probability = Modified_kibam.recovery_factor p s in
      if Rng.bernoulli rng ~p:probability then
        base.Kibam.k *. delta *. slot
      else 0.
    else
      (* Reverse flow (levelling after over-recovery) is kept
         deterministic; it does not model electro-chemical recovery. *)
      base.Kibam.k *. delta *. slot
  in
  let flow = Float.min flow s.Kibam.bound in
  {
    Kibam.available = s.Kibam.available -. (load *. slot) +. flow;
    bound = s.Kibam.bound -. flow;
  }

let sample_lifetime ?(max_time = 1e9) ~slot rng p profile =
  if slot <= 0. then
    Diag.invalid_model ~what:"Stochastic_kibam slot width"
      [ Printf.sprintf "slot = %g; need a positive slot" slot ];
  let rec walk t s segs =
    if t >= max_time then None
    else if s.Kibam.available <= 0. then Some t
    else
      match segs () with
      | Seq.Nil -> None
      | Seq.Cons ((duration, load), rest) ->
          let seg_end = Float.min (t +. duration) max_time in
          let rec slots t s =
            if s.Kibam.available <= 0. then Some t
            else if t >= seg_end then
              if Float.is_finite duration then walk t s rest else None
            else
              let dt = Float.min slot (seg_end -. t) in
              let s' = step_slot rng p ~load ~slot:dt s in
              if s'.Kibam.available <= 0. then
                (* Interpolate the crossing within the slot. *)
                let consumed = s.Kibam.available -. s'.Kibam.available in
                let frac =
                  if consumed > 0. then s.Kibam.available /. consumed else 1.
                in
                Some (t +. (frac *. dt))
              else slots (t +. dt) s'
          in
          slots t s
  in
  walk 0. (Kibam.initial p.Modified_kibam.base)
    (Load_profile.segments_from profile 0.)

let mean_lifetime ?(seed = 0x57CA571CL) ?(runs = 200) ?max_time ~slot p profile
    =
  if runs <= 0 then
    Diag.invalid_model ~what:"Stochastic_kibam replication count"
      [ Printf.sprintf "runs = %d; need runs > 0" runs ];
  let master = Rng.create ~seed () in
  let samples =
    Array.init runs (fun _ ->
        let rng = Rng.split master in
        match sample_lifetime ?max_time ~slot rng p profile with
        | Some t -> t
        | None ->
            Diag.fail
              (Diag.Budget_exhausted
                 {
                   what =
                     "Stochastic_kibam.mean_lifetime: a replication was \
                      censored — the battery outlived the simulated span \
                      (raise ?max_time or supply a finite load profile)";
                   budget = runs;
                 }))
  in
  let s = Stats.summarize samples in
  (s.Stats.mean, Stats.mean_confidence_interval samples)
