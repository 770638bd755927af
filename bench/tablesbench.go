package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tableNames are poolsim's experiments in "all" order.
var tableNames = []string{
	"fig6a", "fig6b", "fig7a", "fig7b",
	"insert", "hotspot", "poolsize", "pointquery", "aggregate",
	"energy", "loadbalance", "fragmentation", "dissemination", "resilience", "churn", "dimsweep", "variance",
	"placement", "eventload", "latency", "asynclatency", "asyncscale", "lossy", "saturation",
}

const tablesSetupReps = 5

// repoRoot finds the checkout: the nearest directory at or above the
// working directory that holds cmd/poolsim.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "poolsim", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cmd/poolsim not found above the working directory")
		}
		dir = parent
	}
}

var poolsimPath string

// buildPoolsim builds ./cmd/poolsim once per process, untimed, into
// .bench_build/ at the root of the checkout.
func buildPoolsim() (string, error) {
	if poolsimPath != "" {
		return poolsimPath, nil
	}
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	out := filepath.Join(root, ".bench_build", "poolsim")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/poolsim")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building poolsim: %v\n%s", err, msg)
	}
	poolsimPath = out
	return out, nil
}

// child is one finished poolsim run.
type child struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
}

// poolsim runs the binary to completion and waits for it.
func poolsim(args ...string) (child, error) {
	bin, err := buildPoolsim()
	if err != nil {
		return child{}, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	c := child{stdout: stdout.Bytes(), wall: time.Since(start)}
	if err != nil {
		return c, fmt.Errorf("poolsim %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	c.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssKB = ru.Maxrss
	}
	return c, nil
}

// table is one parsed text table of poolsim's output.
type table struct {
	title  string
	header []string
	rows   [][]string
}

var columnGap = regexp.MustCompile(`  +`)

// parseTables splits poolsim's text output into its tables: a title, a
// header, a rule, then rows, with a blank line between tables.
func parseTables(out []byte) []table {
	var tables []table
	for _, block := range strings.Split(strings.TrimSpace(string(out)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 3 {
			continue
		}
		t := table{title: lines[0], header: columnGap.Split(strings.TrimSpace(lines[1]), -1)}
		for _, l := range lines[3:] {
			t.rows = append(t.rows, columnGap.Split(strings.TrimSpace(l), -1))
		}
		tables = append(tables, t)
	}
	return tables
}

// column returns the numeric cells of the named column.
func (t table) column(name string) []float64 {
	for c, h := range t.header {
		if h != name {
			continue
		}
		var out []float64
		for _, row := range t.rows {
			if c < len(row) {
				if v, err := strconv.ParseFloat(row[c], 64); err == nil {
					out = append(out, v)
				}
			}
		}
		return out
	}
	return nil
}

// poolCostGeomean is tables_all's pool_msgs_per_query: the geometric
// mean of every cell of a "Pool" column in the tables that report
// average messages per query. One cell (fig6a's N=1200 row) moves by
// a tenth from seed to seed; the mean over some twenty cells from
// independent deployments is steady enough to carry a bound.
func poolCostGeomean(tables []table) float64 {
	logSum, n := 0.0, 0
	for _, t := range tables {
		if !strings.Contains(t.title, "avg messages/query") {
			continue
		}
		for _, v := range t.column("Pool") {
			if v > 0 {
				logSum += math.Log(v)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// tablesAllBatch is one batch of tables_all: `poolsim -seed <seed> all`
// as a subprocess, which is what README tells users to run.
func tablesAllBatch(r *run, b int) {
	seed := strconv.FormatInt(r.seed, 10)
	r.timeSetup(tablesSetupReps, func() {
		if _, err := poolsim("-seed", seed, "-queries", "1", "fig6a", "fig6b", "fig7a", "fig7b"); err != nil && r.err == nil {
			r.err = err
		}
	})
	if r.err != nil {
		return
	}
	args := []string{"-seed", seed, "all"}
	if r.scale < 1 {
		args = []string{"-seed", seed, "-quick", "fig6a", "fig6b", "fig7a", "fig7b", "dissemination", "variance"}
	}
	id := r.sp.begin(r.sp.kind("experiment", "all"), b)
	c, err := poolsim(args...)
	r.sp.end(id)
	tables := parseTables(c.stdout)
	r.attempt(len(tableNames))
	if err != nil {
		r.err = err
		return
	}
	r.wallS = append(r.wallS, c.wall.Seconds())
	r.cpuS = append(r.cpuS, c.cpu.Seconds())
	r.ops += len(tables)
	r.childRSSMB = append(r.childRSSMB, float64(c.rssKB)/1024)

	sum := sha256.Sum256(c.stdout)
	if r.stdoutSum == ([32]byte{}) {
		r.stdoutSum = sum
	} else if sum != r.stdoutSum {
		r.fail("stdout differs from the first run of the same seed")
	}
	if r.scale >= 1 && len(tables) != len(tableNames) {
		r.fail("%d tables printed, want %d", len(tables), len(tableNames))
	}
	if b == 0 {
		r.sum["pool.cost_geomean"] = poolCostGeomean(tables)
		if len(tables) > 0 {
			if p := tables[0].column("Pool"); len(p) > 0 {
				r.sum["fig6a.pool_last"] = p[len(p)-1]
			}
			if d := tables[0].column("DIM"); len(d) > 0 {
				r.sum["fig6a.dim_last"] = d[len(d)-1]
			}
		}
	}
}
