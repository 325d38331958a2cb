type t = {
  seed : int;
  sample_rate : float;
  random_multiplier : int;
  min_random_length : int;
  vector : Mutsamp_validation.Vectorgen.config;
  equivalence_screen : int;
}

let default =
  {
    seed = 2005;
    sample_rate = 0.10;
    random_multiplier = 20;
    min_random_length = 256;
    vector = Mutsamp_validation.Vectorgen.default_config;
    equivalence_screen = 512;
  }

let quick =
  {
    default with
    random_multiplier = 8;
    min_random_length = 128;
    vector =
      {
        Mutsamp_validation.Vectorgen.default_config with
        Mutsamp_validation.Vectorgen.max_stall = 60;
        max_vectors = 1024;
      };
    equivalence_screen = 192;
  }

let to_json t =
  let module J = Mutsamp_obs.Json in
  let v = t.vector in
  J.Obj
    [
      ("seed", J.Int t.seed);
      ("sample_rate", J.Float t.sample_rate);
      ("random_multiplier", J.Int t.random_multiplier);
      ("min_random_length", J.Int t.min_random_length);
      ( "vector",
        J.Obj
          [
            ("seed", J.Int v.Mutsamp_validation.Vectorgen.seed);
            ("max_stall", J.Int v.max_stall);
            ("sequence_length", J.Int v.sequence_length);
            ("max_vectors", J.Int v.max_vectors);
            ("directed", J.Bool v.directed);
            ("minimize", J.Bool v.minimize);
          ] );
      ("equivalence_screen", J.Int t.equivalence_screen);
    ]
