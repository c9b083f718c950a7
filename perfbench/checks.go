package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"nfstricks/internal/nfsproto"
)

// The checks below are pure functions of what the workload observed and
// what it computed on its own, so checks_test.go can feed each one a
// doctored input and see it refuse.

// checkReplies: every reply (or read-back) equalled the bytes the
// benchmark generated or wrote.
func checkReplies(replies, mismatches int64, first string) check {
	return pass("every reply equals the expected bytes", replies > 0 && mismatches == 0,
		"%d of %d replies differed %s", mismatches, replies, first)
}

// checkEOF: EOF was set on exactly the READs that reached the file's
// size.
func checkEOF(replies, wrong int64) check {
	return pass("EOF set exactly at the file size", replies > 0 && wrong == 0,
		"%d of %d replies had the wrong EOF flag", wrong, replies)
}

// checkTally: a client-side byte count equals the server's counter.
func checkTally(name string, client, server int64) check {
	return pass(name, client > 0 && client == server, "client %d, server %d", client, server)
}

// checkImages: after the last COMMIT the backend holds exactly the
// image the benchmark built from its own writes.
func checkImages(want, got [][]byte) check {
	if len(want) != len(got) {
		return pass("backend bytes equal the expected image", false, "%d files, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			at := 0
			for at < len(want[i]) && at < len(got[i]) && want[i][at] == got[i][at] {
				at++
			}
			return pass("backend bytes equal the expected image", false,
				"file %d differs at byte %d (len %d, want %d)", i, at, len(got[i]), len(want[i]))
		}
	}
	return pass("backend bytes equal the expected image", len(want) > 0, "%d files", len(want))
}

// scanEntry is one entry of a paged directory scan.
type scanEntry struct {
	name   string
	cookie uint64
	fh     nfsproto.FH
}

// checkScan compares a full paged scan with the model of the directory:
// cookies strictly increase, each name appears once, the set of names
// is exactly the model's, and each entry's handle (the fileid for
// READDIR, the handle for READDIRPLUS) is the model's. It returns ""
// when the scan passes.
func checkScan(got []scanEntry, model map[string]nfsproto.FH, plus bool) string {
	kind := "READDIR"
	if plus {
		kind = "READDIRPLUS"
	}
	seen := make(map[string]bool, len(got))
	for i, e := range got {
		if i > 0 && e.cookie <= got[i-1].cookie {
			return fmt.Sprintf("%s: cookie %d after %d", kind, e.cookie, got[i-1].cookie)
		}
		if seen[e.name] {
			return fmt.Sprintf("%s: %q listed twice", kind, e.name)
		}
		seen[e.name] = true
		fh, ok := model[e.name]
		if !ok {
			return fmt.Sprintf("%s: %q is not in the model", kind, e.name)
		}
		if fh != e.fh {
			return fmt.Sprintf("%s: %q has handle %d, model %d", kind, e.name, e.fh, fh)
		}
	}
	if len(seen) != len(model) {
		var missing []string
		for name := range model {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 3 {
			missing = missing[:3]
		}
		return fmt.Sprintf("%s: %d names, model has %d (missing %s)", kind, len(seen), len(model),
			strings.Join(missing, ","))
	}
	return ""
}

func checkScans(errs []string) check {
	first := ""
	if len(errs) > 0 {
		first = errs[0]
	}
	return pass("paged scans list exactly the model's names, cookies ascending", len(errs) == 0,
		"%d bad scans %s", len(errs), first)
}

// checkProcCounts: the server executed exactly the calls the benchmark
// issued, procedure by procedure.
func checkProcCounts(issued, executed []int64) check {
	var diffs []string
	for p := range issued {
		var got int64
		if p < len(executed) {
			got = executed[p]
		}
		if got != issued[p] {
			diffs = append(diffs, fmt.Sprintf("%s issued %d executed %d",
				nfsproto.ProcName(uint32(p)), issued[p], got))
		}
	}
	for p := len(issued); p < len(executed); p++ {
		if executed[p] != 0 {
			diffs = append(diffs, fmt.Sprintf("%s issued 0 executed %d", nfsproto.ProcName(uint32(p)), executed[p]))
		}
	}
	return pass("svc.ProcCounts() equals the calls issued per procedure", len(diffs) == 0,
		"%s", strings.Join(diffs, "; "))
}

// checkDRC: on loss-free loopback every non-idempotent call is a fresh
// DRC miss, and nothing is a hit or busy.
func checkDRC(nonIdem, misses, hits, busy int64) check {
	return pass("DRC misses equal non-idempotent calls; no hits, no busy",
		nonIdem > 0 && misses == nonIdem && hits == 0 && busy == 0,
		"issued %d non-idempotent, misses %d hits %d busy %d", nonIdem, misses, hits, busy)
}

// checkMediaRate: no simulated reader outran the drive's media rate.
func checkMediaRate(fastest, ceiling float64) check {
	return pass("no reader exceeds the partition's media rate", fastest > 0 && fastest <= ceiling,
		"fastest reader %.2f MB/s, media rate ceiling %.2f MB/s", fastest/1e6, ceiling/1e6)
}
