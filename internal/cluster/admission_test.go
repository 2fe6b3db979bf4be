package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"lambdastore/internal/admission"
	"lambdastore/internal/core"
	"lambdastore/internal/fault"
	"lambdastore/internal/shard"
)

// waitUntil polls cond until it holds or a generous deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionPlaneGatesInvocations drives a one-slot, one-queue-entry
// plane through the RPC client: the first invocation holds the slot
// (parked behind the object lock), the second queues, the third is shed
// as overload before execution, and /admission reports exactly that.
func TestAdmissionPlaneGatesInvocations(t *testing.T) {
	node, err := StartNode(NodeOptions{
		Addr:      "127.0.0.1:0",
		DataDir:   t.TempDir(),
		DebugAddr: "127.0.0.1:0",
		Tracing:   true,
		// The deadline outlasts the test: only the queue limit sheds.
		Admission: &admission.Options{Workers: 1, QueueLimit: 1, Deadline: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	dir := shard.NewDirectory(nil)
	dir.SetGroup(shard.Group{ID: 0, Primary: node.Addr()})
	node.SetDirectory(dir)
	// One attempt per call, so a shed surfaces instead of being retried.
	c, err := NewClient(ClientConfig{Directory: dir, MaxRetries: 1, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}

	release, err := node.Runtime().LockObject(1)
	if err != nil {
		t.Fatal(err)
	}
	add := func() error {
		_, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)})
		return err
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- add() }()
	waitUntil(t, "first invocation to hold the slot", func() bool { return node.adm.Status().Active == 1 })
	go func() { second <- add() }()
	waitUntil(t, "second invocation to queue", func() bool { return node.adm.Status().QueueDepth == 1 })

	if err := add(); !admission.IsOverload(err) {
		t.Fatalf("third invocation: err = %v, want an overload shed", err)
	}
	body, err := httpGetBody(node.DebugAddr() + "/admission")
	if err != nil {
		t.Fatal(err)
	}
	var st admission.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /admission body %q: %v", body, err)
	}
	if !st.Enabled || st.ShedFull != 1 || st.Workers != 1 || st.QueueLimit != 1 {
		t.Fatalf("/admission = %+v, want enabled, 1 slot, queue 1, shed_full 1", st)
	}

	release()
	for i, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatalf("invocation %d: %v", i+1, err)
		}
	}
	if v, err := node.Runtime().GetValueField(1, "count"); err != nil || core.BytesI64(v) != 2 {
		t.Fatalf("count = %d, %v; want 2 (the shed invocation must not execute)", core.BytesI64(v), err)
	}
	waits := 0
	for _, sp := range node.Tracer().Spans() {
		if sp.Name == "admission-wait" {
			waits++
		}
	}
	if waits != 3 {
		t.Fatalf("%d admission-wait spans, want one per gated invocation (3)", waits)
	}
}

// TestInvokeFaultSlowsOneNode arms a SiteInvoke delay keyed on one node of
// a two-group cluster: invocations homed there take at least the delay,
// and invocations homed on the other node never fire the rule.
func TestInvokeFaultSlowsOneNode(t *testing.T) {
	defer fault.Reset()
	dir := shard.NewDirectory(nil)
	var nodes []*Node
	for gid := uint64(0); gid < 2; gid++ {
		node, err := StartNode(NodeOptions{
			Addr:      "127.0.0.1:0",
			DataDir:   t.TempDir(),
			GroupID:   gid,
			Directory: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
		dir.SetGroup(shard.Group{ID: gid, Primary: node.Addr()})
	}
	for _, n := range nodes {
		n.SetDirectory(dir)
	}
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	// Objects land by id%2: object 2 on nodes[0], object 3 on nodes[1].
	for _, id := range []core.ObjectID{2, 3} {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}

	const delay = 50 * time.Millisecond
	fault.Add(fault.Rule{Site: fault.SiteInvoke, Key: nodes[0].Addr(), Action: fault.Delay, Delay: delay})
	invoke := func(id core.ObjectID) time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(1)}); err != nil {
			t.Fatalf("invoke %d: %v", id, err)
		}
		return time.Since(start)
	}
	if d := invoke(2); d < delay {
		t.Fatalf("invocation on the slowed node took %v, want >= %v", d, delay)
	}
	invoke(3)
	invoke(3)
	if fired := fault.Counters()[fault.SiteInvoke+".delay"]; fired != 1 {
		t.Fatalf("invoke delay fired %d times, want once (only the slowed node's invocation)", fired)
	}
}
