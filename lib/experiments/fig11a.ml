open Crowdmax_util
module Platform = Crowdmax_crowd.Platform
module Estimate = Crowdmax_latency.Estimate
module Model = Crowdmax_latency.Model

type t = {
  measured : (int * float) array;
  fit : Model.t;
  delta : float;
  alpha : float;
}

let batch_sizes = [ 10; 20; 40; 80; 160; 320; 640; 1280 ]

let run ?(runs_per_size = 20) ?(seed = 11) ?platform () =
  if runs_per_size < 1 then invalid_arg "Fig11a.run: runs_per_size < 1";
  let platform =
    match platform with Some p -> p | None -> Platform.create ()
  in
  let rng = Rng.create seed in
  let observations =
    List.concat_map
      (fun q ->
        List.init runs_per_size (fun _ ->
            {
              Estimate.batch_size = q;
              seconds = Platform.batch_latency platform rng q;
            }))
      batch_sizes
  in
  let fit = Estimate.fit_linear observations in
  let delta, alpha =
    match fit with
    | Model.Linear { delta; alpha } -> (delta, alpha)
    | _ -> assert false
  in
  { measured = Estimate.average_by_size observations; fit; delta; alpha }

let print t =
  let table =
    Table.create
      ~title:"Fig 11(a): time until last answer vs batch size"
      [ ("batch size", Table.Right); ("measured (s)", Table.Right);
        ("fitted (s)", Table.Right) ]
  in
  Array.iter
    (fun (q, s) ->
      Table.add_row table
        [
          string_of_int q;
          Printf.sprintf "%.1f" s;
          Printf.sprintf "%.1f" (Model.eval t.fit q);
        ])
    t.measured;
  Table.print table;
  Printf.printf "fit: delta = %.1f (paper 239), alpha = %.3f (paper 0.06)\n"
    t.delta t.alpha
