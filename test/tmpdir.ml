(* Scratch directories for the tests that write to disk (cache and
   corpus directories).  A directory is removed with everything in it,
   quarantined [*.corrupt] cache entries included, so a test run leaves
   nothing behind in the temp dir. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* [with_dir prefix f] runs [f] on a fresh, empty directory in the temp
   dir and removes its tree afterwards, also when [f] raises *)
let with_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect (fun () -> f dir) ~finally:(fun () -> rm_rf dir)
