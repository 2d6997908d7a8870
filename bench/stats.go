package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// addTiming records the median and p90 of a sample set under name.p50 and
// name.p90.
func (m metrics) addTiming(name, unit string, xs []float64) {
	m[name+".p50"] = metric{Value: quantile(xs, 0.5), Unit: unit, Samples: len(xs)}
	m[name+".p90"] = metric{Value: quantile(xs, 0.9), Unit: unit, Samples: len(xs)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	if kb, ok := procField("/proc/self/status", "VmHWM:"); ok {
		if v, err := strconv.ParseFloat(strings.Fields(kb)[0], 64); err == nil {
			return v / 1024
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// procField returns the text after the first line of a /proc file that
// starts with key.
func procField(path, key string) (string, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), true
		}
	}
	return "", false
}

// environment stamps a report with what the numbers were measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func stamp() environment {
	cpu, _ := procField("/proc/cpuinfo", "model name")
	if cpu == "" {
		cpu = "unknown"
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpu,
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
	}
}

// commit is the VCS revision the binary was built from, when the build saw a
// git checkout; "unknown" otherwise.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
