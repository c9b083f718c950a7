package bench

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// EnvMeta identifies the environment a process runs in: the exact tree
// the binary was built from and the machine shape the numbers depend
// on. It is the part of RunMeta that is not specific to a benchmark
// sweep, so the server's /statsz can reuse it to make a scraped
// snapshot self-identifying the way Artifacts already are.
type EnvMeta struct {
	GitRev     string `json:"git_rev,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname,omitempty"`
	Timestamp  string `json:"timestamp"`
}

// RunMeta identifies one nfsbench invocation precisely enough to
// reproduce it: the environment plus the sweep parameters. It is
// embedded in every JSON artifact so a result file is self-describing.
// EnvMeta is embedded anonymously, so the JSON layout is unchanged from
// when its fields lived here directly.
type RunMeta struct {
	EnvMeta
	Seed        int64    `json:"seed"`
	Runs        int      `json:"runs"`
	Scale       int      `json:"scale"`
	Experiments []string `json:"experiments"`
}

// Artifact is the JSON document nfsbench -json writes: the run's
// metadata plus every experiment's result.
type Artifact struct {
	Meta    RunMeta   `json:"meta"`
	Results []*Result `json:"results"`
}

// ResultByID finds a result by its experiment ID.
func (a *Artifact) ResultByID(id string) (*Result, bool) {
	for _, r := range a.Results {
		if r.ID == id {
			return r, true
		}
	}
	return nil, false
}

// CollectEnvMeta gathers environment metadata. Git queries run
// best-effort (a binary executed outside its repo simply omits the
// revision).
func CollectEnvMeta() EnvMeta {
	m := EnvMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().Format(time.RFC3339),
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitRev = strings.TrimSpace(string(out))
		if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.GitDirty = len(strings.TrimSpace(string(status))) > 0
		}
	}
	return m
}

// CollectMeta gathers run metadata for a benchmark invocation.
func CollectMeta(p Params, experiments []string) RunMeta {
	p.fill()
	return RunMeta{
		EnvMeta:     CollectEnvMeta(),
		Seed:        p.Seed,
		Runs:        p.Runs,
		Scale:       p.Scale,
		Experiments: experiments,
	}
}

// startCellProfile begins a CPU profile for one experiment cell,
// written as <ProfileDir>/<cell>.cpu.pprof, and returns the stop
// function. With ProfileDir unset (or on any setup error) it is a
// no-op: profiling must never fail a measurement. Only one CPU profile
// can run at a time, so only the sweep calls it, one cell at a time.
func (p Params) startCellProfile(cell string) func() {
	if p.ProfileDir == "" {
		return func() {}
	}
	f, err := os.Create(filepath.Join(p.ProfileDir, cell+".cpu.pprof"))
	if err != nil {
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}
