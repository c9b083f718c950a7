package nfstricks

// Live observability contract through the public facade: a fully
// instrumented server under concurrent client load must serve
// /metrics, /statsz and a CPU profile from its admin endpoint at the
// same time, and every view must agree with the service's own
// counters. CI runs this under -race.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nfstricks/internal/nfsproto"
)

func adminGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body
}

// TestLiveAdminUnderTraffic serves real READ traffic while concurrently
// scraping /metrics, /statsz and /debug/pprof/profile from the admin
// endpoint — the issue's acceptance scenario: observability must be
// readable live, not only after shutdown.
func TestLiveAdminUnderTraffic(t *testing.T) {
	const clients = 4
	const fileSize = 128 * 1024

	reg := NewObsRegistry()
	fs := NewLiveFS()
	payload := make([]byte, fileSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for i := 0; i < clients; i++ {
		fs.Create(LiveRootFH, fmt.Sprintf("f%d", i), payload)
	}
	svc := NewLiveService(fs, LiveConfig{Obs: reg})
	defer svc.Close()
	// Plain options: the spans below must come from the service's Obs
	// registry alone, with nothing passed to the server.
	srv, err := ServeLive("127.0.0.1:0", svc, LiveServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	adm, err := ServeObsAdmin("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + adm.Addr()

	// Traffic: each client loops over its file until told to stop.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialLive("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			fh, size, err := c.Lookup(LiveRootFH, fmt.Sprintf("f%d", i))
			if err != nil {
				errs <- err
				return
			}
			for {
				for off := uint64(0); off < uint64(size); off += 8192 {
					select {
					case <-stop:
						return
					default:
					}
					if _, _, err := c.Read(fh, off, 8192); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}

	// Scrapes, all while the readers are running. The profile endpoint
	// holds the CPU profiler open for a second of live traffic.
	var scrape sync.WaitGroup
	scrapeErr := make(chan error, 3)
	scrape.Add(3)
	go func() {
		defer scrape.Done()
		deadline := time.Now().Add(5 * time.Second)
		for {
			metrics := string(adminGet(t, base+"/metrics"))
			if !strings.Contains(metrics, `nfsd_executed_total{proc="READ"}`) {
				scrapeErr <- fmt.Errorf("/metrics missing the READ counter:\n%.500s", metrics)
				return
			}
			// Traffic has flowed once the span summary shows up.
			if strings.Contains(metrics, `nfsd_op_seconds{proc="READ",quantile="0.5"}`) {
				return
			}
			if time.Now().After(deadline) {
				scrapeErr <- fmt.Errorf("/metrics never showed READ spans under live traffic")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	go func() {
		defer scrape.Done()
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		blob := adminGet(t, base+"/statsz")
		if err := json.Unmarshal(blob, &snap); err != nil {
			scrapeErr <- fmt.Errorf("/statsz is not JSON: %v\n%.300s", err, blob)
			return
		}
		if _, ok := snap.Counters[`nfsd_executed_total{proc="READ"}`]; !ok {
			scrapeErr <- fmt.Errorf("/statsz missing the READ counter")
		}
	}()
	go func() {
		defer scrape.Done()
		prof := adminGet(t, base+"/debug/pprof/profile?seconds=1")
		if len(prof) == 0 {
			scrapeErr <- fmt.Errorf("CPU profile came back empty")
		}
	}()
	scrape.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	close(scrapeErr)
	for err := range errs {
		t.Fatal(err)
	}
	for err := range scrapeErr {
		t.Fatal(err)
	}

	// The views agree with the service's own accounting: the registry
	// counter is the same atomic ProcCounts reads.
	snap := reg.Dump()
	got := snap.Counters[`nfsd_executed_total{proc="READ"}`]
	if got == 0 {
		t.Fatal("no READs recorded in the registry")
	}
	if want := svc.ProcCounts()[nfsproto.ProcRead]; got != want {
		t.Fatalf("registry READ counter %d != service ProcCounts %d", got, want)
	}
	if snap.Spans["nfsd_op"].Procs["READ"].Count == 0 {
		t.Fatal("no READ spans recorded")
	}
}
