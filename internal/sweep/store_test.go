package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Name: "p", Fingerprint: "ab", Series: "1T", X: "64",
		Cycles: 100, Sigma: 1.5, Reps: 5, Derived: map[string]float64{"size": 64}}
	st.Put("fig09", rec)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Lookup("fig09", "p", "ab")
	if !ok {
		t.Fatal("reloaded store missed")
	}
	if got.Cycles != 100 || got.Derived["size"] != 64 || got.Series != "1T" {
		t.Fatalf("round-trip mangled record: %+v", got)
	}
	// Wrong fingerprint is a miss even though the name exists.
	if _, ok := st2.Lookup("fig09", "p", "cd"); ok {
		t.Fatal("lookup ignored the fingerprint")
	}
}

func TestStorePutReplacesByName(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("g", Record{Name: "p", Fingerprint: "old", Cycles: 1})
	st.Put("g", Record{Name: "p", Fingerprint: "new", Cycles: 2})
	recs := st.Records("g")
	if len(recs) != 1 || recs[0].Fingerprint != "new" || recs[0].Cycles != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

// Identical sweeps must write byte-identical files: the determinism the
// N=1 vs N=GOMAXPROCS acceptance check relies on.
func TestStoreFilesAreByteDeterministic(t *testing.T) {
	write := func(dir string) []byte {
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Put("g", Record{Name: "a", Fingerprint: "f1", Cycles: 1, Reps: 1})
		st.Put("g", Record{Name: "b", Fingerprint: "f2", Cycles: 2, Reps: 1,
			Derived: map[string]float64{"z": 1, "a": 2}})
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, FileName("g")))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(write(t.TempDir())) != string(write(t.TempDir())) {
		t.Fatal("two identical sweeps wrote different bytes")
	}
}

// A killed process may leave a partially-written file. Store writes go to a
// temp file and rename into place, so the visible BENCH_*.json is always
// complete; a torn file from a pre-atomic writer (or a scribbled-on store) is
// ignored on load and repaired by the next Flush.
func TestStoreTornFileIgnoredAndRepaired(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName("g"))
	// Simulate a torn write: valid prefix of a real store file, cut mid-record.
	torn := `{"schema_version":1,"group":"g","records":[{"name":"p","fingerp`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup("g", "p", "ab"); ok {
		t.Fatal("lookup served a record out of a torn file")
	}
	// The group loaded empty and was marked dirty: the next write repairs it.
	st.Put("g", Record{Name: "p", Fingerprint: "ab", Cycles: 1, Reps: 1})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatalf("repaired file still unreadable: %v", err)
	}
	if len(f.Records) != 1 || f.Records[0].Name != "p" {
		t.Fatalf("repaired file = %+v", f)
	}
}

// An untouched dirty group with no Put still gets rewritten on Flush (the
// repair path for an unreadable file that the run never re-measured).
func TestStoreUnreadableGroupRewrittenEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName("g"))
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Records("g") // loads the group, marking it dirty
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("flushed repair unreadable: %v", err)
	}
}

// The atomic write never leaves its temp file behind on success.
func TestStoreWriteLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("g", Record{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != FileName("g") {
			t.Fatalf("unexpected file left in store dir: %s", e.Name())
		}
	}
}

func TestWriteFileStampsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("quick"))
	if err := WriteFile(path, File{Group: "quick", Records: []Record{{Name: "p", Fingerprint: "f", Reps: 1}}}); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.SchemaVersion != SchemaVersion || f.Group != "quick" || len(f.Records) != 1 {
		t.Fatalf("file = %+v", f)
	}
}

// A file written under an older schema is stale: its records are misses,
// and the next Flush rewrites it under the current schema even when the run
// put nothing into that group.
func TestStoreStaleSchemaFileRewrittenOnFlush(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName("g"))
	stale := fmt.Sprintf(`{"schema_version":%d,"group":"g","records":[{"group":"g","name":"p","fingerprint":"f","cycles":1,"reps":1}]}`,
		SchemaVersion-1)
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup("g", "p", "f"); ok {
		t.Fatal("lookup served a record from a stale-schema file")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatalf("stale file not rewritten: %v", err)
	}
	if f.SchemaVersion != SchemaVersion || len(f.Records) != 0 {
		t.Fatalf("rewritten file = %+v", f)
	}
}

// A .tmp left by a writer killed before its rename is never read, and the
// next write of the same file replaces it.
func TestStoreStrayTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("g", Record{Name: "p", Fingerprint: "f", Cycles: 3, Reps: 1})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, FileName("g")+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"schema_version":1,"group":"g","rec`), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := st2.Lookup("g", "p", "f"); !ok || rec.Cycles != 3 {
		t.Fatalf("committed record lost next to a stray temp file: %+v %v", rec, ok)
	}
	st2.Put("g", Record{Name: "q", Fingerprint: "f", Cycles: 4, Reps: 1})
	if err := st2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived the next write: %v", err)
	}
	if f, err := LoadFile(filepath.Join(dir, FileName("g"))); err != nil || len(f.Records) != 2 {
		t.Fatalf("after write: %+v, %v", f, err)
	}
}

// Flush writes only the groups changed since the last Flush; a group the
// run did not touch keeps its file as it is.
func TestStoreFlushWritesOnlyDirtyGroups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Put("a", Record{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1})
	st.Put("b", Record{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	bPath := filepath.Join(dir, FileName("b"))
	marker := []byte("written by someone else\n")
	if err := os.WriteFile(bPath, marker, 0o644); err != nil {
		t.Fatal(err)
	}
	st.Put("a", Record{Name: "q", Fingerprint: "f", Cycles: 2, Reps: 1})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(bPath); string(b) != string(marker) {
		t.Fatalf("clean group b was rewritten:\n%s", b)
	}
	if f, err := LoadFile(filepath.Join(dir, FileName("a"))); err != nil || len(f.Records) != 2 {
		t.Fatalf("dirty group a: %+v, %v", f, err)
	}
}

// Looking up a group that has no file creates nothing on Flush.
func TestStoreLookupOfMissingGroupWritesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lookup("g", "p", "f"); ok {
		t.Fatal("hit in an empty store")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("lookup-only run wrote %d files", len(ents))
	}
}

// Records hands out a copy: editing it does not change the store.
func TestStoreRecordsReturnsCopy(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("g", Record{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1})
	recs := st.Records("g")
	recs[0].Cycles = 99
	if rec, ok := st.Lookup("g", "p", "f"); !ok || rec.Cycles != 1 {
		t.Fatalf("store changed through the Records copy: %+v", rec)
	}
}

// The store is safe for concurrent use: parallel Put, Lookup and Records
// across shared groups lose no record.
func TestStoreConcurrentUse(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			group := fmt.Sprintf("g%d", g%2)
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("w%d/p%d", g, i)
				st.Put(group, Record{Name: name, Fingerprint: "f", Cycles: float64(i), Reps: 1})
				if _, ok := st.Lookup(group, name, "f"); !ok {
					t.Errorf("%s/%s missing right after Put", group, name)
				}
				st.Records(group)
			}
		}(g)
	}
	wg.Wait()
	for _, group := range []string{"g0", "g1"} {
		if n := len(st.Records(group)); n != goroutines/2*perG {
			t.Errorf("%s holds %d records, want %d", group, n, goroutines/2*perG)
		}
	}
}
