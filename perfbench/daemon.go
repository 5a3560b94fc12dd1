package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mvpears/internal/server"
)

// daemonArgs puts mvpearsd on the README's accelerated miss path: int8
// engines behind the parity gate and the auto-calibrated cascade. Every
// other flag keeps its default; the admin listener serves /metrics.
var daemonArgs = []string{"-quantized", "-cascade-margin", "0"}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running mvpearsd.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // public listener, host:port
	admin   string // admin listener, host:port
	logPath string
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon execs mvpearsd on the artifact and returns once /readyz
// answers 200, with the time from exec to that answer (setup_s). Its
// stderr (boot log and access log) goes to logPath.
func startDaemon(bin, model, logPath string) (*daemon, time.Duration, error) {
	addr, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	admin, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := append([]string{"-model", model, "-addr", addr, "-admin-addr", admin}, daemonArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark itself is killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, addr: addr, admin: admin, logPath: logPath, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting mvpearsd: %w", err)
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("mvpearsd exited during boot (%v); see %s", d.waitErr, logPath)
		default:
		}
		if resp, err := client.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("mvpearsd not ready after 120s; see %s", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain overruns.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(40 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("mvpearsd did not drain within 40s")
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// adminClient talks to the daemon's admin listener; a daemon that stops
// answering fails the run instead of hanging it.
var adminClient = &http.Client{Timeout: 10 * time.Second}

// scrape reads the admin /metrics exposition.
func (d *daemon) scrape() (promSnap, error) {
	resp, err := adminClient.Get("http://" + d.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// infoz reads the daemon's build and model identity.
func (d *daemon) infoz() (server.InfoJSON, error) {
	var info server.InfoJSON
	resp, err := adminClient.Get("http://" + d.admin + "/infoz")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// bootLog returns the daemon's boot log lines (everything before the
// first access-log JSON line).
func (d *daemon) bootLog() ([]string, error) {
	f, err := os.Open(d.logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			break
		}
		out = append(out, line)
	}
	return out, sc.Err()
}

// stealTicks reads the machine's total and stolen CPU ticks from
// /proc/stat: time the hypervisor ran something else while this
// machine's CPUs had work.
func stealTicks() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
