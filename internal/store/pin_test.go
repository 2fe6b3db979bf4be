package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lambdastore/internal/telemetry"
)

// TestGetsBesideCompactionNeverLoseTables runs point reads that miss the
// state cache (keys that were never written, each read once) beside a
// writer whose tiny memtable keeps flushes and compactions retiring
// tables. A read works from the version it captured; no table of that
// version may disappear under it.
func TestGetsBesideCompactionNeverLoseTables(t *testing.T) {
	opts := testOptions()
	opts.MemtableBytes = 4 << 10
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	db, _ := openTestDB(t, opts)

	const writes, readers = 20000, 4
	value := bytes.Repeat([]byte{'v'}, 64)
	var done atomic.Bool
	var written atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				// Between keys already written, so the newest tables
				// overlap the probe and the lookup has to open them.
				key := fmt.Sprintf("k%06d-absent-r%d-%d", int64(i)%(written.Load()+1), r, i)
				if _, err := db.Get([]byte(key)); err != ErrNotFound {
					errs <- fmt.Errorf("Get(%s) = %v, want ErrNotFound", key, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), value); err != nil {
			t.Fatalf("Put: %v", err)
		}
		written.Store(int64(i))
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reg.Counter("store.compactions").Value() == 0 {
		t.Fatalf("no compaction ran; the test exercised nothing")
	}
}

// TestIteratorOutlivesCompactedTables opens an iterator, compacts away
// every table it covers, and only then walks it: the iterator's version
// keeps those table files readable until Close.
func TestIteratorOutlivesCompactedTables(t *testing.T) {
	opts := testOptions()
	db, _ := openTestDB(t, opts)
	value := bytes.Repeat([]byte{'a'}, 100)
	const keys = 2000
	for i := 0; i < keys; i++ {
		mustPut(t, db, fmt.Sprintf("key%05d", i), string(value))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}

	it, err := db.NewIterator()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()

	// Rewrite every key so the compactions replace all tables the
	// iterator's version lists.
	newValue := bytes.Repeat([]byte{'b'}, 100)
	for round := 0; round < 4; round++ {
		for i := 0; i < keys; i++ {
			mustPut(t, db, fmt.Sprintf("key%05d", i), string(newValue))
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactNow(); err != nil {
		t.Fatal(err)
	}

	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Value(), value) {
			t.Fatalf("key %q: iterator saw a write made after it opened", it.Key())
		}
		n++
	}
	if err := it.Error(); err != nil {
		t.Fatalf("iterate after compaction: %v", err)
	}
	if n != keys {
		t.Fatalf("iterated %d keys, want %d", n, keys)
	}
}
