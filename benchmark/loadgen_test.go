package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The program under test receives only generated inputs: the same seed
// must give byte-identical request streams, another seed other streams.
func TestStreamsAreSeeded(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		if sp.txn {
			a, b, c := buildTxnPlans(1, 0), buildTxnPlans(1, 0), buildTxnPlans(2, 0)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same seed, different plans", sp.name)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: different seeds, same plans", sp.name)
			}
			continue
		}
		a, b, c := buildPool(sp, 1, 0, 2), buildPool(sp, 1, 0, 2), buildPool(sp, 2, 0, 2)
		if !bytes.Equal(a.buf, b.buf) || !reflect.DeepEqual(a.reqs, b.reqs) {
			t.Errorf("%s: same seed, different streams", sp.name)
		}
		if bytes.Equal(a.buf, c.buf) {
			t.Errorf("%s: different seeds, same stream", sp.name)
		}
		if other := buildPool(sp, 1, 1, 2); bytes.Equal(a.buf, other.buf) {
			t.Errorf("%s: two connections replay the same stream", sp.name)
		}
		for _, r := range a.reqs {
			if r.kind != kGet && !r.own {
				t.Fatalf("%s: connection 0 writes key %d, which it does not own", sp.name, r.key)
			}
		}
		if got := strings.Count(string(a.bytes(0)), "\n"); got != sp.window {
			t.Errorf("%s: window 0 holds %d requests, want %d", sp.name, got, sp.window)
		}
	}
}

func testClient(sp *spec) *client {
	c := &client{id: 0, sp: sp}
	c.reset()
	return c
}

// The checker accepts the right reply and rejects a wrong kind, a wrong
// value, an ERR and garbage, each under its own count.
func TestCheckerRejectsWrongReplies(t *testing.T) {
	sp, _ := specByName("write-reqresp")
	c := testClient(sp)
	get := &req{kind: kGet, own: true, key: 3}
	c.checkReply(get, []byte("VALUE 3")) // preload stored k3 -> 3
	c.checkReply(&req{kind: kSet, own: true, key: 3, val: 77}, []byte("OK"))
	c.checkReply(get, []byte("VALUE 77"))
	c.checkReply(&req{kind: kDel, own: true, key: 3}, []byte("DELETED"))
	c.checkReply(get, []byte("NOTFOUND"))
	c.checkReply(&req{kind: kSet, own: true, key: 3, val: 78}, []byte("OK NEW"))
	if c.t.failed() != 0 {
		t.Fatalf("correct replies were rejected: %+v", c.t)
	}
	c.checkReply(get, []byte("OK")) // a SET's reply to a GET
	if c.t.wrongKind != 1 {
		t.Errorf("wrong-kind reply not counted: %+v", c.t)
	}
	c.checkReply(get, []byte("VALUE 79")) // the corrupted value
	c.checkReply(&req{kind: kSet, own: true, key: 3, val: 80}, []byte("OK NEW"))
	if c.t.wrongValue != 2 {
		t.Errorf("wrong-value replies not counted: %+v", c.t)
	}
	c.checkReply(get, []byte("ERR readonly"))
	c.checkReply(get, []byte("VALUE 8O"))
	if c.t.errs != 1 || c.t.malformed != 1 || c.t.failed() != 5 {
		t.Errorf("ERR and malformed replies not counted: %+v", c.t)
	}

	// A key another connection writes: the value must at least belong to
	// the key.
	rp, _ := specByName("read-pipelined")
	c = testClient(rp)
	foreign := &req{kind: kGet, key: 5}
	c.checkReply(foreign, []byte(fmt.Sprint("VALUE ", setValue(rp, 9, 5))))
	if c.t.failed() != 0 {
		t.Errorf("a value of key 5 was rejected for key 5: %+v", c.t)
	}
	c.checkReply(foreign, []byte(fmt.Sprint("VALUE ", setValue(rp, 9, 6))))
	if c.t.wrongValue != 1 {
		t.Errorf("a value of key 6 was accepted for key 5: %+v", c.t)
	}
}

// pipeClient returns a client whose connection is one end of a
// net.Pipe, and the other end.
func pipeClient(sp *spec) (*client, net.Conn) {
	near, far := net.Pipe()
	c := newClient(sp, 0, 1, 1)
	c.nc, c.lr = near, newLineReader(near)
	return c, far
}

// A transfer answered ABORTED is an abort, not a failure, and marks its
// accounts stale; a snapshot answered ABORTED is a wrong kind.
func TestTxnChecker(t *testing.T) {
	sp, _ := specByName("txn-contended")
	c, far := pipeClient(sp)
	defer far.Close()
	c.plans = []txnPlan{{transfer: true, acct: [4]uint8{1, 2, 3, 4}, amt: 5}, {acct: [4]uint8{1, 2, 3, 4}}}
	replies := []string{
		"OK\nQUEUED\nQUEUED\nABORTED cas-guard\n",                 // the transfer
		"OK\nQUEUED\nQUEUED\nQUEUED\nQUEUED\nABORTED cas-guard\n", // the snapshot
	}
	go func() {
		rd := bufio.NewReader(far)
		for _, r := range replies {
			for { // swallow one MULTI..EXEC block
				line, err := rd.ReadString('\n')
				if err != nil || line == "EXEC\n" {
					break
				}
			}
			far.Write([]byte(r))
		}
	}()
	c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		if err := c.sendWindow(); err != nil {
			t.Fatal(err)
		}
		if err := c.recvWindow(); err != nil {
			t.Fatal(err)
		}
		if i == 0 && (c.t.failed() != 0 || c.t.aborted != 1 || !c.view.stale[1] || !c.view.stale[2]) {
			t.Fatalf("aborted transfer: tally %+v, stale %v %v", c.t, c.view.stale[1], c.view.stale[2])
		}
	}
	if c.t.wrongKind != 1 || c.t.failed() != 1 {
		t.Errorf("aborted snapshot not counted as a wrong kind: %+v", c.t)
	}
}

// Intended-time stamping: a server that stalls once must show up in the
// open-loop p99 as roughly the stall, because every window due during
// the stall waits behind it. A measure that starts its clock when a
// request is actually sent would record one slow sample out of many —
// the stub answers all but one request at once — and its p99 would not
// move (coordinated omission).
func TestOpenLoopChargesStallToWaitingWindows(t *testing.T) {
	sp := &spec{name: "stub", keys: 16, window: 1, limitUS: 1e6}
	const (
		stall   = 150 * time.Millisecond
		dur     = 600 * time.Millisecond
		rate    = 2000.0
		stallAt = 600 // request number: halfway through
	)
	c, far := pipeClient(sp)
	defer far.Close()
	slow := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd := bufio.NewReader(far)
		for n := 0; ; n++ {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			t0 := time.Now()
			if n == stallAt {
				time.Sleep(stall)
			}
			if _, err := far.Write([]byte("VALUE " + strings.TrimPrefix(strings.TrimSpace(line), "GET k") + "\n")); err != nil {
				return
			}
			if time.Since(t0) > stall/2 {
				slow++
			}
		}
	}()
	g := &loadgen{sp: sp, seed: 1, clients: []*client{c}}
	r := g.open(0, rate, dur, 5*time.Second)
	c.close()
	<-done
	if c.t.failed() != 0 || r.answered != r.offered {
		t.Fatalf("stub run failed: %d of %d answered, tally %+v", r.answered, r.offered, c.t)
	}
	p50, p99 := r.quantileUS(0.5)/1e3, r.quantileUS(0.99)/1e3
	t.Logf("%d windows, p50 %.2f ms, p99 %.2f ms, send lag p99 %.2f ms, slow service times %d", r.offered, p50, p99, r.lag.Quantile(0.99)/1e6, slow)
	if slow != 1 {
		t.Errorf("the stub served %d requests slowly, want exactly the stalled one", slow)
	}
	lo, hi := 0.6*stall.Seconds()*1e3, 1.5*stall.Seconds()*1e3
	if p99 < lo || p99 > hi {
		t.Errorf("p99 = %.1f ms, want about the %v stall", p99, stall)
	}
	if p50 > lo/4 {
		t.Errorf("p50 = %.1f ms: the stall should not reach the median", p50)
	}
}
