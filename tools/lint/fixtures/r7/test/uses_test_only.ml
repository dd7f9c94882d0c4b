let check () = assert (Lint_fixtures_r7.Test_only.helper 1 = 1)
