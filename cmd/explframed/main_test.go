package main

import "testing"

// The member specs of a campaign always run in declaration order, so
// explframed has no spec-level parallelism flag: passing one is a usage
// error, rejected before the server opens its journal or listener.
func TestRunRejectsSpecParallelismFlag(t *testing.T) {
	if code := run([]string{"-spec-workers", "2"}); code != 2 {
		t.Fatalf("run(-spec-workers 2) = %d, want 2", code)
	}
}
