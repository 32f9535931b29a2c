package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// report keeps metrics in the order they were added.
type report struct {
	names   []string
	metrics map[string]metric
	samples map[string]int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

func (o *report) add(name string, value float64, unit string, samples int) {
	o.names = append(o.names, name)
	o.metrics[name] = metric{Value: value, Unit: unit}
	o.samples[name] = samples
}

// print writes the provenance, one line per metric with its sample
// count, and the result object as the last line.
func (r *run) print() {
	prov := map[string]any{
		"workload": r.w.name, "seed": r.seed, "seconds": r.secs, "trace": r.traced,
		"open_loop_rate_txn_s": r.w.rate, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(), "go": runtime.Version(),
		"orthrus": fmt.Sprintf("%d cc + %d exec", orthrusCC, orthrusExec), "twopl_workers": twoplWorker,
		"session_s": sessionSeconds, "window_ms": windowNs / 1e6,
		"host_steal_pct": r.stealPct,
	}
	pj, _ := json.Marshal(prov) // a map of plain values always marshals
	fmt.Printf("# provenance %s\n", pj)
	for _, n := range r.out.names {
		m := r.out.metrics[n]
		fmt.Printf("%-28s %14.4f %-7s n=%d\n", n, m.Value, m.Unit, r.out.samples[n])
	}
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.out.metrics})
	fmt.Println(string(res))
}

// cpuStat returns the steal and total CPU time of all CPUs in
// /proc/stat, in clock ticks; zeros where the kernel reports none.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseUint(v, 10, 64) // a malformed field counts as 0
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
