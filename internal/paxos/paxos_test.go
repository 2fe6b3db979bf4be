package paxos

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"lambdastore/internal/rpc"
)

// newCluster builds n nodes on a shared local transport, collecting applied
// values per node.
func newCluster(n int) ([]*Node, *LocalTransport, []*appliedLog) {
	trans := NewLocalTransport()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	nodes := make([]*Node, n)
	logs := make([]*appliedLog, n)
	for i := range ids {
		log := &appliedLog{}
		logs[i] = log
		nodes[i] = NewNode(ids[i], ids, trans, log.apply)
		trans.Register(nodes[i])
	}
	return nodes, trans, logs
}

// appliedLog records apply callbacks in order.
type appliedLog struct {
	mu      sync.Mutex
	entries []string
}

func (l *appliedLog) apply(slot uint64, value []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for uint64(len(l.entries)) < slot {
		l.entries = append(l.entries, "") // shouldn't happen: gaps
	}
	l.entries = append(l.entries, string(value))
}

func (l *appliedLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.entries...)
}

func TestSingleProposerChoosesValues(t *testing.T) {
	nodes, _, logs := newCluster(3)
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("cmd-%d", i)
		slot, err := nodes[0].ProposeMine([]byte(v))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if slot != uint64(i) {
			t.Fatalf("cmd %d landed in slot %d", i, slot)
		}
	}
	for ni, log := range logs {
		got := log.snapshot()
		if len(got) != 10 {
			t.Fatalf("node %d applied %d entries", ni, len(got))
		}
		for i, v := range got {
			if v != fmt.Sprintf("cmd-%d", i) {
				t.Fatalf("node %d slot %d = %q", ni, i, v)
			}
		}
	}
}

func TestCompetingProposersAgree(t *testing.T) {
	nodes, _, logs := newCluster(3)
	const perNode = 20
	var wg sync.WaitGroup
	for ni, n := range nodes {
		wg.Add(1)
		go func(ni int, n *Node) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				if _, err := n.ProposeMine([]byte(fmt.Sprintf("n%d-c%d", ni, i))); err != nil {
					t.Errorf("node %d propose: %v", ni, err)
					return
				}
			}
		}(ni, n)
	}
	wg.Wait()

	// All nodes might lag on slots they didn't propose; catch up explicitly.
	total := uint64(len(nodes) * perNode)
	for _, n := range nodes {
		if err := n.CatchUp(total); err != nil {
			t.Fatalf("catchup: %v", err)
		}
	}

	// Every replica's log must agree slot by slot, contain every proposed
	// command exactly once.
	ref := logs[0].snapshot()
	if uint64(len(ref)) != total {
		t.Fatalf("log length %d, want %d", len(ref), total)
	}
	seen := make(map[string]int)
	for _, v := range ref {
		seen[v]++
	}
	for ni := 0; ni < len(nodes); ni++ {
		for i := 0; i < perNode; i++ {
			cmd := fmt.Sprintf("n%d-c%d", ni, i)
			if seen[cmd] != 1 {
				t.Fatalf("command %q chosen %d times", cmd, seen[cmd])
			}
		}
	}
	for ni := 1; ni < len(logs); ni++ {
		got := logs[ni].snapshot()
		if len(got) != len(ref) {
			t.Fatalf("node %d log length %d vs %d", ni, len(got), len(ref))
		}
		for s := range ref {
			if got[s] != ref[s] {
				t.Fatalf("divergence at slot %d: %q vs %q", s, got[s], ref[s])
			}
		}
	}
}

// TestConcurrentLearnsApplyInSlotOrder pins the learner's ordering
// guarantee: while apply(0) is still running, a concurrent learn of slot 1
// must not apply slot 1 ahead of it.
func TestConcurrentLearnsApplyInSlotOrder(t *testing.T) {
	var (
		mu    sync.Mutex
		order []uint64
	)
	entered0 := make(chan struct{})
	release0 := make(chan struct{})
	applied1 := make(chan struct{})
	n := NewNode(1, []uint64{1}, NewLocalTransport(), func(slot uint64, _ []byte) {
		if slot == 0 {
			close(entered0)
			<-release0
		}
		mu.Lock()
		order = append(order, slot)
		mu.Unlock()
		if slot == 1 {
			close(applied1)
		}
	})

	learned0 := make(chan struct{})
	go func() {
		defer close(learned0)
		n.HandleLearn(&LearnReq{Slot: 0, Value: []byte("a")})
	}()
	<-entered0
	learned1 := make(chan struct{})
	go func() {
		defer close(learned1)
		n.HandleLearn(&LearnReq{Slot: 1, Value: []byte("b")})
	}()
	// An out-of-order learner applies slot 1 right away; give it the
	// chance before letting slot 0 finish.
	select {
	case <-applied1:
	case <-time.After(200 * time.Millisecond):
	}
	close(release0)
	<-learned0
	<-learned1

	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(order, []uint64{0, 1}) {
		t.Fatalf("apply order = %v, want [0 1]", order)
	}
}

func TestProgressWithMinorityDown(t *testing.T) {
	nodes, trans, _ := newCluster(3)
	trans.Disconnect(3)
	for i := 0; i < 5; i++ {
		if _, err := nodes[0].ProposeMine([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("propose with minority down: %v", err)
		}
	}
}

func TestNoProgressWithMajorityDown(t *testing.T) {
	nodes, trans, _ := newCluster(3)
	trans.Disconnect(2)
	trans.Disconnect(3)
	if _, _, err := nodes[0].Propose([]byte("doomed")); err == nil {
		t.Fatal("proposal succeeded without quorum")
	}
}

func TestRecoveredNodeCatchesUp(t *testing.T) {
	nodes, trans, logs := newCluster(3)
	trans.Disconnect(3)
	for i := 0; i < 8; i++ {
		if _, err := nodes[0].ProposeMine([]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	trans.Reconnect(3)
	if err := nodes[2].CatchUp(nodes[0].NumChosen()); err != nil {
		t.Fatalf("catchup: %v", err)
	}
	got := logs[2].snapshot()
	if len(got) != 8 {
		t.Fatalf("recovered node applied %d entries", len(got))
	}
	for i, v := range got {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("slot %d = %q", i, v)
		}
	}
}

func TestChosenValueIsStable(t *testing.T) {
	// Once a value is chosen, later proposers with new ballots must adopt
	// it rather than overwrite.
	nodes, _, _ := newCluster(3)
	slot, err := nodes[0].ProposeMine([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	chosen, err := nodes[1].proposeSlot(slot, []byte("usurper"))
	if err != nil {
		t.Fatal(err)
	}
	if string(chosen) != "first" {
		t.Fatalf("slot %d re-decided to %q", slot, chosen)
	}
}

func TestAcceptorPromiseRules(t *testing.T) {
	n := NewNode(1, []uint64{1}, NewLocalTransport(), nil)
	low := Ballot{Round: 1, Node: 1}
	high := Ballot{Round: 2, Node: 1}
	if resp := n.HandlePrepare(&PrepareReq{Slot: 0, Ballot: high}); !resp.OK {
		t.Fatal("first prepare rejected")
	}
	if resp := n.HandlePrepare(&PrepareReq{Slot: 0, Ballot: low}); resp.OK {
		t.Fatal("lower ballot prepare accepted after higher promise")
	}
	if resp := n.HandleAccept(&AcceptReq{Slot: 0, Ballot: low, Value: []byte("x")}); resp.OK {
		t.Fatal("lower ballot accept accepted")
	}
	if resp := n.HandleAccept(&AcceptReq{Slot: 0, Ballot: high, Value: []byte("y")}); !resp.OK {
		t.Fatal("promised ballot accept rejected")
	}
	// Prepare at an even higher ballot must report the accepted value.
	resp := n.HandlePrepare(&PrepareReq{Slot: 0, Ballot: Ballot{Round: 3, Node: 1}})
	if !resp.OK || !resp.HasAccepted || string(resp.AcceptedValue) != "y" {
		t.Fatalf("prepare resp %+v", resp)
	}
}

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 1}, Ballot{2, 1}, true},
		{Ballot{2, 1}, Ballot{1, 9}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Fatalf("%v < %v = %v", c.a, c.b, got)
		}
	}
}

func TestMessageCodecs(t *testing.T) {
	pr := &PrepareReq{Slot: 9, Ballot: Ballot{Round: 3, Node: 2}}
	pr2, err := DecodePrepareReq(EncodePrepareReq(pr))
	if err != nil || *pr2 != *pr {
		t.Fatalf("prepare req round trip: %+v %v", pr2, err)
	}
	presp := &PrepareResp{OK: true, Promised: Ballot{4, 1}, HasAccepted: true,
		AcceptedBallot: Ballot{2, 3}, AcceptedValue: []byte("val")}
	presp2, err := DecodePrepareResp(EncodePrepareResp(presp))
	if err != nil || presp2.Promised != presp.Promised || string(presp2.AcceptedValue) != "val" || !presp2.HasAccepted {
		t.Fatalf("prepare resp round trip: %+v %v", presp2, err)
	}
	ar := &AcceptReq{Slot: 5, Ballot: Ballot{7, 7}, Value: []byte("cmd")}
	ar2, err := DecodeAcceptReq(EncodeAcceptReq(ar))
	if err != nil || ar2.Slot != 5 || string(ar2.Value) != "cmd" {
		t.Fatalf("accept req round trip: %+v %v", ar2, err)
	}
	lr := &LearnReq{Slot: 11, Value: []byte("chosen")}
	lr2, err := DecodeLearnReq(EncodeLearnReq(lr))
	if err != nil || lr2.Slot != 11 || string(lr2.Value) != "chosen" {
		t.Fatalf("learn req round trip: %+v %v", lr2, err)
	}
}

func TestRPCTransportEndToEnd(t *testing.T) {
	// Three nodes, each behind a real RPC server on loopback.
	ids := []uint64{1, 2, 3}
	var logs [3]*appliedLog
	nodes := make([]*Node, 3)
	servers := make([]*rpc.Server, 3)
	addrs := make(map[uint64]string)

	// Create nodes first with a placeholder transport, then swap in the RPC
	// transport once all addresses are known.
	for i, id := range ids {
		logs[i] = &appliedLog{}
		nodes[i] = NewNode(id, ids, nil, logs[i].apply)
	}
	for i := range ids {
		servers[i] = rpc.NewServer()
		RegisterServer(servers[i], nodes[i])
		addr, err := servers[i].Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer servers[i].Close()
		addrs[ids[i]] = addr
	}
	pool := rpc.NewPool(nil)
	defer pool.Close()
	for i := range ids {
		nodes[i].trans = NewRPCTransport(nodes[i], pool, addrs)
	}

	for i := 0; i < 5; i++ {
		if _, err := nodes[i%3].ProposeMine([]byte(fmt.Sprintf("net-%d", i))); err != nil {
			t.Fatalf("propose over rpc: %v", err)
		}
	}
	for i := range nodes {
		if err := nodes[i].CatchUp(5); err != nil {
			t.Fatal(err)
		}
		got := logs[i].snapshot()
		if len(got) != 5 {
			t.Fatalf("node %d applied %d", i, len(got))
		}
	}
	ref := logs[0].snapshot()
	for i := 1; i < 3; i++ {
		got := logs[i].snapshot()
		for s := range ref {
			if got[s] != ref[s] {
				t.Fatalf("divergence at slot %d", s)
			}
		}
	}
}

func TestStableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/acceptor.log"

	// Acceptor 1 runs with durable storage and promises/accepts.
	stable, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	n1 := NewNode(1, []uint64{1}, NewLocalTransport(), nil)
	if err := n1.SetStable(stable); err != nil {
		t.Fatal(err)
	}
	high := Ballot{Round: 5, Node: 2}
	if resp := n1.HandlePrepare(&PrepareReq{Slot: 0, Ballot: high}); !resp.OK {
		t.Fatal("prepare rejected")
	}
	if resp := n1.HandleAccept(&AcceptReq{Slot: 0, Ballot: high, Value: []byte("chosen-v")}); !resp.OK {
		t.Fatal("accept rejected")
	}
	if resp := n1.HandlePrepare(&PrepareReq{Slot: 3, Ballot: Ballot{Round: 9, Node: 4}}); !resp.OK {
		t.Fatal("prepare slot 3 rejected")
	}
	stable.Close()

	// Restart: a fresh node loads the log and must honor old obligations.
	stable2, err := OpenFileStable(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stable2.Close()
	n2 := NewNode(1, []uint64{1}, NewLocalTransport(), nil)
	if err := n2.SetStable(stable2); err != nil {
		t.Fatal(err)
	}
	// Lower ballots must be rejected (the promise survived).
	if resp := n2.HandlePrepare(&PrepareReq{Slot: 0, Ballot: Ballot{Round: 4, Node: 9}}); resp.OK {
		t.Fatal("restarted acceptor forgot its promise on slot 0")
	}
	if resp := n2.HandlePrepare(&PrepareReq{Slot: 3, Ballot: Ballot{Round: 8, Node: 9}}); resp.OK {
		t.Fatal("restarted acceptor forgot its promise on slot 3")
	}
	// A higher prepare must report the accepted value (it survived too).
	resp := n2.HandlePrepare(&PrepareReq{Slot: 0, Ballot: Ballot{Round: 10, Node: 9}})
	if !resp.OK || !resp.HasAccepted || string(resp.AcceptedValue) != "chosen-v" {
		t.Fatalf("restarted acceptor lost accepted value: %+v", resp)
	}
	if resp.AcceptedBallot != high {
		t.Fatalf("accepted ballot = %v", resp.AcceptedBallot)
	}
}

func TestStableSafetyAcrossAcceptorRestart(t *testing.T) {
	// Choose a value with durable acceptors, restart every acceptor from
	// its log, and verify a later competing proposal cannot change the
	// chosen value.
	dir := t.TempDir()
	trans := NewLocalTransport()
	ids := []uint64{1, 2, 3}
	open := func(round int) []*Node {
		nodes := make([]*Node, len(ids))
		for i, id := range ids {
			st, err := OpenFileStable(fmt.Sprintf("%s/acc%d.log", dir, id))
			if err != nil {
				t.Fatal(err)
			}
			n := NewNode(id, ids, trans, nil)
			if err := n.SetStable(st); err != nil {
				t.Fatal(err)
			}
			trans.Register(n) // replaces the previous registration
			nodes[i] = n
		}
		return nodes
	}

	nodes := open(0)
	slot, err := nodes[0].ProposeMine([]byte("first-decision"))
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" everything and restart from the logs.
	nodes = open(1)
	chosen, err := nodes[1].proposeSlot(slot, []byte("usurper"))
	if err != nil {
		t.Fatal(err)
	}
	if string(chosen) != "first-decision" {
		t.Fatalf("restart lost the chosen value: %q", chosen)
	}
}
