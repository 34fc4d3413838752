package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// meter accumulates the host cost of the code segments passed to
// measure: wall seconds, process CPU (user+sys) seconds, and Go heap
// bytes allocated.
type meter struct {
	wall, cpu time.Duration
	bytes     uint64
}

func (m *meter) measure(fn func() error) error {
	s0 := readAllocs()
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	m.wall += time.Since(t0)
	m.cpu += cpuTime() - c0
	s1 := readAllocs()
	m.bytes += s1.bytes - s0.bytes
	return err
}

// resetHost runs, untimed, before every set-up step: it collects the
// host garbage earlier steps left and returns the freed memory to the
// operating system, so no step pays for another's garbage, at most one
// simulated machine's memory is resident at a time, and every machine is
// built in fresh pages (which keeps set-up time and peak RSS from
// depending on how fragmented earlier work left the Go heap).
func resetHost() { debug.FreeOSMemory() }

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuTime is the process's CPU time (user+sys, all threads) so far. It
// reads CLOCK_PROCESS_CPUTIME_ID rather than getrusage, whose
// microsecond timevals cannot resolve the microsecond-long set-up steps.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type allocSample struct{ bytes, objects uint64 }

// readAllocs reads the Go runtime's cumulative allocation counters
// without stopping the world (runtime.ReadMemStats would).
func readAllocs() allocSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocSample{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

// provenance identifies what produced a result: the commit the binary was
// built from (when built inside a git checkout), a digest of the source
// tree (always), and the host's Go and CPU configuration.
type provenance struct {
	Commit, Source, GoVersion string
	GOMAXPROCS, NumCPU        int
}

func currentProvenance(root string) provenance {
	p := provenance{Commit: "none", Source: sourceDigest(root), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if p.Commit != "none" {
			p.Commit += dirty
		}
	}
	return p
}

// sourceDigest hashes every Go source and module file under root (paths
// and contents, in walk order), skipping dot-directories such as the
// build directory. It names the code under test when no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
