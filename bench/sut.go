package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adrdedup/internal/adr"
	"adrdedup/internal/serve"
)

// The system under test always runs as a child process, so its CPU time and
// peak memory can be read from /proc/<pid> without the generator's own cost
// in them. Linux only.

// findRoot walks up from the working directory to the checkout root, the
// directory that holds cmd/adrdedupd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "adrdedupd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/adrdedupd not found in any parent directory: run from inside the adrdedup checkout")
		}
		dir = parent
	}
}

// buildDaemon compiles the real adrdedupd from the checkout's source into
// .bench_build and returns the binary's path.
func buildDaemon(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "adrdedupd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/adrdedupd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building adrdedupd: %w\n%s", err, out)
	}
	return bin, nil
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a live process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSSMB returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// child is a running system under test.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr bytes.Buffer
	// setup is exec-to-ready: the time from starting the process to its
	// ready line, i.e. corpus generation, seeding and training.
	setup time.Duration
	// url is the daemon's base URL; only daemon children have one.
	url string
}

// startChild execs bin and waits for a stdout line starting with readyPrefix;
// the rest of that line is returned.
func startChild(bin string, args []string, readyPrefix string) (*child, string, error) {
	c := &child{cmd: exec.Command(bin, args...)}
	c.cmd.Stderr = &c.stderr
	// Should this process die without reaching kill or stop, the kernel ends
	// the child with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := c.cmd.StdinPipe()
	if err != nil {
		return nil, "", err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	c.stdin, c.stdout = stdin, bufio.NewReaderSize(stdout, 1<<20)
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, "", err
	}
	line, err := c.stdout.ReadString('\n')
	c.setup = time.Since(start)
	if err != nil || !strings.HasPrefix(line, readyPrefix) {
		c.kill()
		return nil, "", fmt.Errorf("%s did not become ready (stdout %q, err %v)\n%s", filepath.Base(bin), line, err, c.stderr.String())
	}
	return c, strings.TrimSpace(strings.TrimPrefix(line, readyPrefix)), nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	_ = c.cmd.Wait()         // reaps; the exit status of a killed child is not interesting
}

// stop asks the child to exit and waits for it, killing it after a grace
// period: SIGTERM drains the daemon, the batch child exits when stdin closes.
func (c *child) stop() error {
	_ = c.stdin.Close() // closing twice is harmless
	if c.url != "" {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	done := make(chan error, 1)
	go func() {
		_, _ = io.Copy(io.Discard, c.stdout) // let Wait close the pipe
		done <- c.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("child exited uncleanly: %w\n%s", err, c.stderr.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("child did not exit within 20s of being asked to\n%s", c.stderr.String())
	}
}

func startDaemon(bin string, w workload) (*child, error) {
	c, rest, err := startChild(bin, w.daemonArgs(), "adrdedupd: listening on ")
	if err != nil {
		return nil, err
	}
	c.url = rest
	return c, nil
}

// daemonStats fetches /v1/stats.
func daemonStats(baseURL string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}

// batchJob is the file the sut-batch child receives: the bootstrap
// configuration and the pre-generated batches, nothing else.
type batchJob struct {
	Bootstrap serve.BootstrapConfig `json:"bootstrap"`
	Batches   [][]adr.Report        `json:"batches"`
	WindowNS  int64                 `json:"windowNS"`
}

// batchCall is the child's record of one Detect call.
type batchCall struct {
	LatencyNS  int64       `json:"latencyNS"`
	Scored     int         `json:"scored"`
	Duplicates []wireMatch `json:"duplicates"`
}

type batchOutput struct {
	Calls  []batchCall `json:"calls"`
	WallNS int64       `json:"wallNS"`
}

// sutBatchMain is the hidden library-path system under test. Protocol, all on
// stdin/stdout: it bootstraps and decodes its batches, prints "ready", waits
// for a line, runs Detect per batch until the window closes, prints one JSON
// line, then waits for stdin to close so the parent can read /proc first.
func sutBatchMain(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: sut-batch JOBFILE")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var job batchJob
	if err := json.Unmarshal(data, &job); err != nil {
		return fmt.Errorf("decoding %s: %w", args[0], err)
	}
	boot, err := serve.NewBootstrap(job.Bootstrap)
	if err != nil {
		return err
	}
	defer boot.Detector.Engine().Cluster().Close()
	fmt.Println("ready")

	stdin := bufio.NewReader(os.Stdin)
	if _, err := stdin.ReadString('\n'); err != nil {
		return fmt.Errorf("waiting for go: %w", err)
	}
	var out batchOutput
	start := time.Now()
	for _, batch := range job.Batches {
		if time.Since(start) >= time.Duration(job.WindowNS) {
			break
		}
		t0 := time.Now()
		matches, err := boot.Detector.Detect(batch)
		if err != nil {
			return err
		}
		latency := time.Since(t0)
		resp := wireOf(len(batch), matches)
		out.Calls = append(out.Calls, batchCall{LatencyNS: int64(latency), Scored: resp.Scored, Duplicates: resp.Matches})
	}
	out.WallNS = int64(time.Since(start))
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, stdin) // returns when the parent closes the pipe
	return nil
}

// startBatchChild writes the job file and execs this binary in sut-batch mode.
func startBatchChild(jobFile string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c, _, err := startChild(self, []string{"sut-batch", jobFile}, "ready")
	return c, err
}

// runBatchChild releases a ready sut-batch child and collects its output as a
// loadResult, so the library path is reported like the HTTP ones.
func runBatchChild(c *child) (*loadResult, error) {
	if _, err := io.WriteString(c.stdin, "go\n"); err != nil {
		return nil, err
	}
	line, err := c.stdout.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("reading sut-batch output: %w\n%s", err, c.stderr.String())
	}
	var out batchOutput
	if err := json.Unmarshal(line, &out); err != nil {
		return nil, fmt.Errorf("decoding sut-batch output: %w", err)
	}
	res := &loadResult{wall: time.Duration(out.WallNS)}
	for i, call := range out.Calls {
		res.outcomes = append(res.outcomes, outcome{
			index: i, latency: time.Duration(call.LatencyNS), ok: true,
			resp: wireResponse{Scored: call.Scored, Duplicates: len(call.Duplicates), Matches: call.Duplicates},
		})
	}
	return res, nil
}
