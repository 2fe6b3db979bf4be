package cluster

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lambdastore/internal/coordinator"
	"lambdastore/internal/core"
	"lambdastore/internal/paxos"
	"lambdastore/internal/rpc"
	"lambdastore/internal/shard"
	"lambdastore/internal/vm"
)

// counterType builds a minimal Counter type for cluster tests.
func counterType(t *testing.T) *core.ObjectType {
	t.Helper()
	clean := `
func read params=0
  str "count"
  hostcall val_get
  dup
  push -1
  eq
  jnz absent
  unpack.ptr
  load64
  ret
absent:
  pop
  push 0
  ret
end

;; emit(v): store v into "count" and set it as the result.
func emit params=1 locals=1
  push 8
  hostcall alloc
  local.set 1
  local.get 1
  local.get 0
  store64
  str "count"
  local.get 1
  push 8
  hostcall val_set
  local.get 1
  push 8
  hostcall set_result
  ret
end

func add params=0 export
  call read
  push 0
  hostcall arg
  unpack.ptr
  load64
  add
  call emit
  ret
end

func get params=0 locals=1 export
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  call read
  store64
  local.get 0
  push 8
  hostcall set_result
  ret
end

;; ping_add(target, delta): cross-object invoke of add on target.
func ping_add params=0 locals=2 export
  push 1
  hostcall arg
  unpack.ptr
  load64
  local.set 1
  push 8
  hostcall alloc
  local.set 0
  local.get 0
  local.get 1
  store64
  local.get 0
  push 8
  hostcall call_arg
  push 0
  hostcall arg
  unpack.ptr
  load64
  str "add"
  hostcall invoke
  dup
  unpack.ptr
  swap
  unpack.len
  hostcall set_result
  ret
end
`
	mod, err := vm.Assemble(clean)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	typ, err := core.NewObjectType("Counter",
		[]core.FieldDef{{Name: "count", Kind: core.FieldValue}},
		[]core.MethodInfo{
			{Name: "add"},
			{Name: "get", ReadOnly: true, Deterministic: true},
			{Name: "ping_add"},
		}, mod)
	if err != nil {
		t.Fatalf("type: %v", err)
	}
	return typ
}

// startGroup boots n nodes forming one replica group with a static
// directory, first node primary.
func startGroup(t *testing.T, n int, groupID uint64) ([]*Node, *shard.Directory) {
	t.Helper()
	dir := shard.NewDirectory(nil)
	var nodes []*Node
	for i := 0; i < n; i++ {
		node, err := StartNode(NodeOptions{
			Addr:      "127.0.0.1:0",
			DataDir:   t.TempDir(),
			GroupID:   groupID,
			Directory: dir,
		})
		if err != nil {
			t.Fatalf("StartNode: %v", err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
	}
	g := shard.Group{ID: groupID, Primary: nodes[0].Addr()}
	for _, b := range nodes[1:] {
		g.Backups = append(g.Backups, b.Addr())
	}
	dir.SetGroup(g)
	for _, node := range nodes {
		node.SetDirectory(dir)
	}
	return nodes, dir
}

func newGroupClient(t *testing.T, dir *shard.Directory) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestSingleGroupInvokeAndReplicate(t *testing.T) {
	nodes, dir := startGroup(t, 3, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(5)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 5 {
		t.Fatalf("add = %d", core.BytesI64(res))
	}

	// The write-set must be on every backup (synchronous shipping).
	for i, node := range nodes {
		v, err := node.Runtime().GetValueField(1, "count")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if core.BytesI64(v) != 5 {
			t.Fatalf("node %d count = %d", i, core.BytesI64(v))
		}
	}
}

func TestReplicaReads(t *testing.T) {
	nodes, dir := startGroup(t, 3, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(7)}); err != nil {
		t.Fatal(err)
	}
	// Spread reads over replicas; all must observe the committed value.
	for i := 0; i < 9; i++ {
		res, err := c.InvokeRead(1, "get", nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if core.BytesI64(res) != 7 {
			t.Fatalf("read %d = %d", i, core.BytesI64(res))
		}
	}
	// Backups served some of those reads.
	var backupInvocations uint64
	for _, node := range nodes[1:] {
		inv, _ := node.Runtime().Stats()
		backupInvocations += inv
	}
	if backupInvocations == 0 {
		t.Fatal("no read executed at a backup")
	}
}

func TestBackupRejectsMutation(t *testing.T) {
	nodes, dir := startGroup(t, 2, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	// Talk to the backup directly with a mutating request.
	pool := rpc.NewPool(nil)
	defer pool.Close()
	body := encodeInvokeReq(&invokeReq{object: 1, method: "add", args: [][]byte{core.I64Bytes(1)}})
	_, err := pool.Call(nodes[1].Addr(), MethodInvoke, body)
	if err == nil {
		t.Fatal("backup executed a mutating invocation")
	}
	if hint, ok := ParseNotResponsible(err); !ok || hint != nodes[0].Addr() {
		t.Fatalf("err = %v (hint %q)", err, hint)
	}
}

// TestDeposedPrimaryWithholdsAck: an invocation admitted while its node
// was primary but committing after the node was deposed must not be
// acknowledged. The deposed node's fan-out is already empty, so the ack
// would cover a write that no replica of the new configuration holds.
func TestDeposedPrimaryWithholdsAck(t *testing.T) {
	nodes, dir := startGroup(t, 2, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}

	// Park the invocation behind the object lock, depose its node, then
	// let it commit.
	release, err := nodes[0].Runtime().LockObject(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := nodes[0].Runtime().Invoke(1, "add", [][]byte{core.I64Bytes(1)})
		done <- err
	}()
	deposed, err := shard.Load(dir.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deposed.Promote(0, nodes[1].Addr()); err != nil {
		t.Fatal(err)
	}
	nodes[1].SetDirectory(deposed)
	nodes[0].SetDirectory(deposed)
	release()

	err = <-done
	if err == nil {
		v, _ := nodes[1].Runtime().GetValueField(1, "count")
		t.Fatalf("deposed primary acknowledged the write (new primary holds count=%d)", core.BytesI64(v))
	}
	if hint, ok := ParseNotResponsible(err); !ok || hint != nodes[1].Addr() {
		t.Fatalf("err = %v (hint %q), want not-responsible pointing at %s", err, hint, nodes[1].Addr())
	}
}

// A node with no configuration and no coordinators is a static single-node
// deployment: it executes everything and acknowledges each write once.
func TestStaticNodeWithoutConfigAcksWrites(t *testing.T) {
	node, err := StartNode(NodeOptions{
		Addr:      "127.0.0.1:0",
		DataDir:   t.TempDir(),
		Directory: shard.NewDirectory(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	rt := node.Runtime()
	if err := rt.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateObject("Counter", 1); err != nil {
		t.Fatalf("CreateObject: %v", err)
	}
	if _, err := rt.Invoke(1, "add", [][]byte{core.I64Bytes(1)}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	v, err := rt.GetValueField(1, "count")
	if err != nil || core.BytesI64(v) != 1 {
		t.Fatalf("count = %d, %v; want 1", core.BytesI64(v), err)
	}
}

func TestCrossObjectRoutingAcrossGroups(t *testing.T) {
	// Two groups; objects land by id%2. A method on an object in group 0
	// invokes an object in group 1 — the node must forward it.
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
	// Object 2 -> group 0, object 3 -> group 1.
	if err := c.CreateObject("Counter", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 3); err != nil {
		t.Fatal(err)
	}
	// ping_add on object 2 invokes add on object 3.
	res, err := c.Invoke(2, "ping_add", [][]byte{core.I64Bytes(3), core.I64Bytes(11)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 11 {
		t.Fatalf("ping_add = %d", core.BytesI64(res))
	}
	got, err := c.InvokeRead(3, "get", nil)
	if err != nil || core.BytesI64(got) != 11 {
		t.Fatalf("target count = %d, %v", core.BytesI64(got), err)
	}
	if nodes[0].Forwarded() == 0 {
		t.Fatal("cross-group invocation was not forwarded")
	}
}

func TestMigrationMovesObject(t *testing.T) {
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
	// Object 4 -> group 0 by default.
	if err := c.CreateObject("Counter", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(42)}); err != nil {
		t.Fatal(err)
	}

	if err := c.Migrate(4, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The object must now live in group 1 with its state intact.
	g, err := dir.Lookup(4)
	if err != nil || g.ID != 1 {
		t.Fatalf("post-migration lookup: group %d, %v", g.ID, err)
	}
	res, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != 43 {
		t.Fatalf("count after migration = %d", core.BytesI64(res))
	}
	// State present at the new primary, gone from the old one.
	if _, err := nodes[1].Runtime().GetValueField(4, "count"); err != nil {
		t.Fatalf("state missing at destination: %v", err)
	}
	if _, err := nodes[0].Runtime().GetValueField(4, "count"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("state still at source: %v", err)
	}
	// Other objects on group 0 were never disturbed (microshard property):
	// create one and use it during/after migration.
	if err := c.CreateObject("Counter", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(6, "add", [][]byte{core.I64Bytes(2)}); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverWithCoordinator(t *testing.T) {
	// Three coordinator replicas + one 3-node group; kill the primary and
	// expect a backup promotion, then keep invoking through the client.
	coordIDs := []uint64{1, 2, 3}
	var services []*coordinator.Service
	var coordSrvs []*rpc.Server
	coordAddrs := make(map[uint64]string)
	pool := rpc.NewPool(nil)
	defer pool.Close()

	for _, id := range coordIDs {
		svc := coordinator.New(id, coordIDs, nil, coordinator.Options{
			HeartbeatTimeout: 400 * time.Millisecond,
			CheckInterval:    100 * time.Millisecond,
		})
		services = append(services, svc)
		srv := rpc.NewServer()
		coordinator.RegisterServer(srv, svc)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coordSrvs = append(coordSrvs, srv)
		coordAddrs[id] = addr
	}
	t.Cleanup(func() {
		for _, s := range coordSrvs {
			s.Close()
		}
	})
	var coordList []string
	for i, svc := range services {
		trans := paxos.NewRPCTransport(svc.Node(), pool, coordAddrs)
		svc.SetTransport(trans)
		svc.Start()
		coordList = append(coordList, coordAddrs[coordIDs[i]])
	}
	t.Cleanup(func() {
		for _, svc := range services {
			svc.Close()
		}
	})

	// Boot 3 storage nodes using the coordinator.
	var nodes []*Node
	for i := 0; i < 3; i++ {
		node, err := StartNode(NodeOptions{
			Addr:              "127.0.0.1:0",
			DataDir:           t.TempDir(),
			GroupID:           0,
			Coordinators:      coordList,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	closed := make(map[int]bool)
	t.Cleanup(func() {
		for i, n := range nodes {
			if !closed[i] {
				n.Close()
			}
		}
	})

	cc := coordinator.NewClient(pool, coordList)
	g := shard.Group{ID: 0, Primary: nodes[0].Addr(), Backups: []string{nodes[1].Addr(), nodes[2].Addr()}}
	if err := cc.SetGroup(g); err != nil {
		t.Fatal(err)
	}

	// Wait for nodes to pick the config up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if nodes[0].isPrimary() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never learned configuration")
		}
		time.Sleep(20 * time.Millisecond)
	}

	client, err := NewClient(ClientConfig{Coordinators: coordList})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(1, "add", [][]byte{core.I64Bytes(9)}); err != nil {
		t.Fatal(err)
	}

	// Kill the primary.
	closed[0] = true
	nodes[0].Close()

	// The coordinator must promote a backup; the client must recover.
	deadline = time.Now().Add(10 * time.Second)
	for {
		res, err := client.Invoke(1, "get", nil)
		if err == nil {
			if core.BytesI64(res) != 9 {
				t.Fatalf("post-failover count = %d (lost acknowledged write)", core.BytesI64(res))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover never completed: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Writes keep working at the new primary.
	res, err := client.Invoke(1, "add", [][]byte{core.I64Bytes(1)})
	if err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if core.BytesI64(res) != 10 {
		t.Fatalf("post-failover add = %d", core.BytesI64(res))
	}
}

func TestRegisterTypeReachesAllReplicas(t *testing.T) {
	nodes, dir := startGroup(t, 3, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if _, ok := node.Runtime().Type("Counter"); !ok {
			t.Fatalf("node %d missing the type", i)
		}
	}
}

func TestWireRoundTrips(t *testing.T) {
	ir := &invokeReq{object: 7, method: "m", args: [][]byte{[]byte("a"), nil, []byte("ccc")}, readOnly: true}
	dec, err := decodeInvokeReq(encodeInvokeReq(ir))
	if err != nil {
		t.Fatal(err)
	}
	if dec.object != 7 || dec.method != "m" || !dec.readOnly || len(dec.args) != 3 || string(dec.args[2]) != "ccc" {
		t.Fatalf("decoded %+v", dec)
	}
	cr := &createReq{object: 9, typeName: "T"}
	dcr, err := decodeCreateReq(encodeCreateReq(cr))
	if err != nil || dcr.object != 9 || dcr.typeName != "T" {
		t.Fatalf("create round trip: %+v %v", dcr, err)
	}
	mr := &migrateReq{object: 4, destPrimary: "1.2.3.4:5", destGroup: 2}
	dmr, err := decodeMigrateReq(encodeMigrateReq(mr))
	if err != nil || dmr.destPrimary != "1.2.3.4:5" || dmr.destGroup != 2 {
		t.Fatalf("migrate round trip: %+v %v", dmr, err)
	}
	ig := &ingestReq{object: 3, keys: [][]byte{[]byte("k")}, values: [][]byte{[]byte("v")}}
	dig, err := decodeIngestReq(encodeIngestReq(ig))
	if err != nil || len(dig.keys) != 1 || string(dig.values[0]) != "v" {
		t.Fatalf("ingest round trip: %+v %v", dig, err)
	}
}

func TestClusterTransaction(t *testing.T) {
	_, dir := startGroup(t, 3, 0)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.InvokeTransaction([]core.TxCall{
		{Object: 1, Method: "add", Args: [][]byte{core.I64Bytes(5)}},
		{Object: 2, Method: "add", Args: [][]byte{core.I64Bytes(7)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(results[0]) != 5 || core.BytesI64(results[1]) != 7 {
		t.Fatalf("results = %d, %d", core.BytesI64(results[0]), core.BytesI64(results[1]))
	}
	// Both commits visible and replicated.
	got, err := c.InvokeRead(1, "get", nil)
	if err != nil || core.BytesI64(got) != 5 {
		t.Fatalf("get(1) = %d, %v", core.BytesI64(got), err)
	}
	got, err = c.InvokeRead(2, "get", nil)
	if err != nil || core.BytesI64(got) != 7 {
		t.Fatalf("get(2) = %d, %v", core.BytesI64(got), err)
	}
}

func TestClusterTransactionSpanningGroupsRejected(t *testing.T) {
	dir := shard.NewDirectory(nil)
	var nodes []*Node
	for gid := uint64(0); gid < 2; gid++ {
		node, err := StartNode(NodeOptions{
			Addr: "127.0.0.1:0", DataDir: t.TempDir(), GroupID: gid, Directory: dir,
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
	// Objects 2 and 3 land in different groups.
	_, err := c.InvokeTransaction([]core.TxCall{
		{Object: 2, Method: "add", Args: [][]byte{core.I64Bytes(1)}},
		{Object: 3, Method: "add", Args: [][]byte{core.I64Bytes(1)}},
	})
	if err == nil {
		t.Fatal("cross-group transaction accepted")
	}
}

func TestNodeRestartRecoversState(t *testing.T) {
	dir := shard.NewDirectory(nil)
	dataDir := t.TempDir()
	node, err := StartNode(NodeOptions{Addr: "127.0.0.1:0", DataDir: dataDir, Directory: dir})
	if err != nil {
		t.Fatal(err)
	}
	dir.SetGroup(shard.Group{ID: 0, Primary: node.Addr()})
	node.SetDirectory(dir)
	c := newGroupClient(t, dir)
	if err := c.RegisterType(counterType(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateObject("Counter", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(21)}); err != nil {
		t.Fatal(err)
	}
	addr := node.Addr()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same data directory and address.
	node2, err := StartNode(NodeOptions{Addr: addr, DataDir: dataDir, Directory: dir})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { node2.Close() })
	// Types and object state recovered from WAL/SSTs.
	if _, ok := node2.Runtime().Type("Counter"); !ok {
		t.Fatal("type lost across restart")
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		res, err := c.Invoke(1, "add", [][]byte{core.I64Bytes(1)})
		if err == nil {
			if core.BytesI64(res) != 22 {
				t.Fatalf("count after restart = %d", core.BytesI64(res))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never recovered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRebalanceHotMovesLoad(t *testing.T) {
	dir := shard.NewDirectory(nil)
	var nodes []*Node
	for gid := uint64(0); gid < 2; gid++ {
		node, err := StartNode(NodeOptions{
			Addr: "127.0.0.1:0", DataDir: t.TempDir(), GroupID: gid, Directory: dir,
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
	// Objects 2,4,6,8 land in group 0; hammer 2 and 4 hard.
	for _, id := range []core.ObjectID{2, 4, 6, 8, 3} {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		for _, id := range []core.ObjectID{2, 4} {
			if _, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	moved, err := c.RebalanceHot(2)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if moved != 2 {
		t.Fatalf("moved %d objects, want 2", moved)
	}
	// The hot objects now live in group 1 with state intact.
	for _, id := range []core.ObjectID{2, 4} {
		g, err := dir.Lookup(uint64(id))
		if err != nil || g.ID != 1 {
			t.Fatalf("object %d in group %d, %v", id, g.ID, err)
		}
		res, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(0)})
		if err != nil || core.BytesI64(res) != 50 {
			t.Fatalf("object %d count after move = %d, %v", id, core.BytesI64(res), err)
		}
	}
	// Cold objects stayed put.
	if g, _ := dir.Lookup(6); g.ID != 0 {
		t.Fatalf("cold object moved to group %d", g.ID)
	}
}

func TestLoadConfigFile(t *testing.T) {
	path := t.TempDir() + "/cluster.json"
	cfg := `{
  "groups": [
    {"id": 0, "primary": "10.0.0.1:7000", "backups": ["10.0.0.2:7000"]},
    {"id": 1, "primary": "10.0.1.1:7000"}
  ],
  "coordinators": ["10.0.9.1:7101"]
}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Groups) != 2 || fc.Coordinators[0] != "10.0.9.1:7101" {
		t.Fatalf("parsed %+v", fc)
	}
	d := fc.Directory()
	g, err := d.Lookup(0)
	if err != nil || g.Primary != "10.0.0.1:7000" || len(g.Backups) != 1 {
		t.Fatalf("directory group %+v, %v", g, err)
	}
	if _, err := LoadConfigFile(path + ".missing"); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := t.TempDir() + "/bad.json"
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := LoadConfigFile(bad); err == nil {
		t.Fatal("bad JSON loaded")
	}
}

func TestMigrationUnderConcurrentLoad(t *testing.T) {
	// The microshard claim (§4.2): migrating one object must not disrupt
	// computation on other objects, and the migrated object itself must
	// lose no committed writes.
	dir := shard.NewDirectory(nil)
	var nodes []*Node
	for gid := uint64(0); gid < 2; gid++ {
		node, err := StartNode(NodeOptions{
			Addr: "127.0.0.1:0", DataDir: t.TempDir(), GroupID: gid, Directory: dir,
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
	// Object 4 (group 0) migrates; objects 6 and 8 (group 0) stay busy.
	for _, id := range []core.ObjectID{4, 6, 8} {
		if err := c.CreateObject("Counter", id); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var otherOps atomic.Int64
	var migratedOps atomic.Int64
	for _, id := range []core.ObjectID{6, 8} {
		wg.Add(1)
		go func(id core.ObjectID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Invoke(id, "add", [][]byte{core.I64Bytes(1)}); err != nil {
					t.Errorf("other-object invoke during migration: %v", err)
					return
				}
				otherOps.Add(1)
			}
		}(id)
	}
	// Writer on the migrating object: some invocations may fail during the
	// cutover window (clients retry in production); count the successes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Invoke(4, "add", [][]byte{core.I64Bytes(1)}); err == nil {
				migratedOps.Add(1)
			}
		}
	}()

	time.Sleep(50 * time.Millisecond)
	if err := c.Migrate(4, 1); err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if otherOps.Load() == 0 {
		t.Fatal("other objects made no progress during migration")
	}
	// Every acknowledged write to the migrated object must be present.
	res, err := c.Invoke(4, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if core.BytesI64(res) != migratedOps.Load() {
		t.Fatalf("migrated object count = %d, acknowledged writes = %d (lost writes)",
			core.BytesI64(res), migratedOps.Load())
	}
	if g, _ := dir.Lookup(4); g.ID != 1 {
		t.Fatalf("object 4 in group %d", g.ID)
	}
}
