package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// provenance identifies the host, toolchain, code and inputs behind one
// result, so a different machine can be told apart from a regression.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	Source     string `json:"source_sha256"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	View       string `json:"view_sha256"`
	Nodes      int    `json:"nodes"`
	Edges      int64  `json:"edges"`
}

func newProvenance(workload string, seed int64, trace, seconds int) *provenance {
	p := &provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
		Source:     sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Seconds:    seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), in path order: the code identity when the checkout
// carries no version-control metadata.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fileDigest is the SHA-256 of a file's bytes.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat
// (zeros where it is unavailable): the share of time the hypervisor gave
// the machine's CPUs to someone else.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealLog samples the host's steal counters through a run, so the share
// of CPU time the hypervisor gave to other tenants can be reported.
type stealLog struct {
	start        time.Time
	at           []time.Duration
	steal, total []float64
	stop, done   chan struct{}
}

// stealEvery is the sampling period of a stealLog.
const stealEvery = 50 * time.Millisecond

func startStealLog(start time.Time) *stealLog {
	l := &stealLog{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	l.sample()
	go func() {
		defer close(l.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				l.sample()
				return
			case <-t.C:
				l.sample()
			}
		}
	}()
	return l
}

func (l *stealLog) sample() {
	s, t := cpuTicks()
	l.at = append(l.at, time.Since(l.start))
	l.steal = append(l.steal, s)
	l.total = append(l.total, t)
}

// close stops sampling and waits for the sampler to end.
func (l *stealLog) close() {
	close(l.stop)
	<-l.done
}

// share is the stolen share of CPU time between the last sample at or
// before lo and the first at or after hi.
func (l *stealLog) share(lo, hi time.Duration) float64 {
	if len(l.at) == 0 {
		return 0
	}
	i, j := 0, len(l.at)-1
	for i+1 < len(l.at) && l.at[i+1] <= lo {
		i++
	}
	for j > 0 && l.at[j-1] >= hi {
		j--
	}
	return ratio(l.steal[j]-l.steal[i], l.total[j]-l.total[i])
}
