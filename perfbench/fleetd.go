package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

// fleetHTTPTimed is how many timed changes per vehicle the traced run
// replays through fleetd, after the vehicle's warm-up prefix.
const fleetHTTPTimed = 1000

type proposeBody struct {
	Vehicle string          `json:"vehicle"`
	Update  *model.Function `json:"update,omitempty"`
	Remove  string          `json:"remove,omitempty"`
}

type proposeReply struct {
	Verdict string `json:"verdict"`
	Report  *struct {
		Accepted   bool     `json:"accepted"`
		RejectedAt string   `json:"rejected_at"`
		Findings   []string `json:"findings"`
		Degraded   bool     `json:"degraded"`
	} `json:"report"`
}

func (r proposeReply) verdict() (verdict, bool) {
	if r.Report == nil || (r.Verdict != string(fleet.Accepted) && r.Verdict != string(fleet.Rejected)) {
		return verdict{}, false
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(r.Report.Findings, "\x00")))
	return verdict{
		accepted:   r.Report.Accepted,
		degraded:   r.Report.Degraded,
		rejectedAt: mcc.Stage(r.Report.RejectedAt),
		findings:   h.Sum64(),
	}, true
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// post sends one JSON body and returns the status and the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// daemon is one running fleetd process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	done     chan error
	stopOnce sync.Once
}

// startFleetd starts fleetd with default flags on a loopback port and
// registers every vehicle over POST /v1/vehicles. It returns each
// registration's round trip.
func startFleetd(cfg config, c *http.Client, vs []*vehicleRun) (*daemon, []time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, nil, err
	}
	logf, err := os.Create(filepath.Join(cfg.out, "fleetd.log"))
	if err != nil {
		return nil, nil, err
	}
	defer logf.Close()
	t0 := time.Now()
	cmd := exec.Command(cfg.fleetd, "-listen", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// fleetd must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start fleetd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for {
		resp, err := c.Get(d.base + "/v1/vehicles")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, nil, fmt.Errorf("fleetd exited before serving: %v", err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, nil, errors.New("fleetd did not start serving within 30s")
		}
	}
	regs := make([]time.Duration, 0, len(vs))
	for _, v := range vs {
		b, err := registerBody(v.id, v.arch)
		if err != nil {
			d.stop()
			return nil, nil, err
		}
		t := time.Now()
		status, reply, err := post(c, d.base+"/v1/vehicles", b)
		if err != nil || status != http.StatusCreated {
			d.stop()
			return nil, nil, fmt.Errorf("register %s: status %d %s: %v", v.id, status, reply, err)
		}
		regs = append(regs, time.Since(t))
	}
	return d, regs, nil
}

// stop drains fleetd with SIGTERM, as an operator would, and waits for it
// to exit; a daemon that does not exit within 10s is killed.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck // best-effort teardown
			<-d.done
		}
	})
}

func registerBody(id string, a *scenario.Fleet) ([]byte, error) {
	return json.Marshal(struct {
		ID       string                        `json:"id"`
		Platform *model.Platform               `json:"platform"`
		Baseline *model.FunctionalArchitecture `json:"baseline"`
	}{id, a.Platform, a.Baseline})
}

// send posts one change for the vehicle and returns fleetd's verdict and
// the reply size; an error means the change got no verdict.
func send(c *http.Client, base, vehicle string, x op) (verdict, int, error) {
	body, err := json.Marshal(proposeBody{Vehicle: vehicle, Update: x.change.Update, Remove: x.change.Remove})
	if err != nil {
		return verdict{}, 0, err
	}
	status, reply, err := post(c, base+"/v1/propose", body)
	if err != nil {
		return verdict{}, 0, err
	}
	if status != http.StatusOK {
		return verdict{}, len(reply), fmt.Errorf("status %d: %s", status, reply)
	}
	var r proposeReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return verdict{}, len(reply), err
	}
	got, ok := r.verdict()
	if !ok {
		return verdict{}, len(reply), fmt.Errorf("verdict %q", r.Verdict)
	}
	return got, len(reply), nil
}

// replayOverHTTP starts the cmd/fleetd binary with default flags,
// registers the vehicles, and sends each vehicle's warm-up prefix and
// first fleetHTTPTimed timed changes over one loopback HTTP connection,
// round robin as in the timed phase. fleetd's verdicts must equal the
// in-process fleet's. Each timed request's round trip minus the
// in-process Propose wall of the same change gives fleetd.http_us_p50.
func replayOverHTTP(cfg config, o *outcome, vs []*vehicleRun, tr *tracer, l map[string]float64) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	d, regs, err := startFleetd(cfg, hc, vs)
	if err != nil {
		return err
	}
	defer d.stop()

	var diff []time.Duration
	replied, flowEdits := 0, 0
	next := make([]int, len(vs))
	for more := true; more; {
		more = false
		for k, v := range vs {
			j := next[k]
			if j >= min(len(v.ops), v.timedFrom+fleetHTTPTimed) {
				continue
			}
			more = true
			next[k]++
			if !v.sent[j] {
				continue
			}
			x := v.ops[j]
			t0 := time.Now()
			got, n, err := send(hc, d.base, v.id, x)
			t1 := time.Now()
			switch {
			case err != nil:
				o.mismatch("%s change %d over HTTP: %v", v.id, j, err)
			case got != v.got[j]:
				o.mismatch("%s change %d (%s): fleetd %+v, in-process %+v", v.id, j, x.change, got, v.got[j])
			}
			if j < v.timedFrom {
				continue
			}
			tr.add(v.req(j), 0, "http.propose", t0, t1)
			diff = append(diff, t1.Sub(t0)-v.walls[j-v.timedFrom])
			replied += n
			if x.flowEdit {
				flowEdits++
			}
		}
	}
	d.stop()

	if flowEdits == 0 {
		o.mismatch("fleetd: no flow edits among the timed changes sent over HTTP")
	}
	l["fleetd.http_us_p50"] = us(quantile(diff, 0.5))
	l["fleetd.reply_bytes"] = float64(replied) / float64(max(len(diff), 1))
	l["fleetd.register_ms_p50"] = float64(quantile(regs, 0.5)) / float64(time.Millisecond)
	l["fleetd.flow_edits"] = float64(flowEdits)
	return nil
}
