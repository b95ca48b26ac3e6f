package jobstore

import (
	"bytes"
	"testing"
)

// stores builds one of each implementation for table-driven tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatalf("NewDir: %v", err)
	}
	return map[string]Store{"mem": NewMem(), "dir": dir}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := "0123456789abcdef"
			if _, ok, err := s.Get(key); err != nil || ok {
				t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
			}
			want := []byte(`{"rows":[1,2,3]}`)
			if err := s.Put(key, want); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok {
				t.Fatalf("Get = ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, want %q", got, want)
			}
			if n, err := s.Len(); err != nil || n != 1 {
				t.Fatalf("Len = %d, %v; want 1", n, err)
			}
		})
	}
}

func TestStorePutIsIdempotent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := "feedc0de"
			if err := s.Put(key, []byte("first")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			// A second Put of the same key must not clobber: content
			// addressing means the bytes are identical by construction,
			// so keeping the original is both safe and cheapest.
			if err := s.Put(key, []byte("second")); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
			got, _, _ := s.Get(key)
			if string(got) != "first" {
				t.Fatalf("after re-Put, Get = %q, want %q", got, "first")
			}
			if n, _ := s.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		})
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, key := range []string{"", "UPPER", "../escape", "has space", "zz.json"} {
				if err := s.Put(key, []byte("x")); err == nil {
					t.Errorf("Put(%q) accepted a non-hex key", key)
				}
			}
		})
	}
}

func TestDirSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDir(dir)
	if err != nil {
		t.Fatalf("NewDir: %v", err)
	}
	if err := s1.Put("abc123", []byte("persisted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s2, err := NewDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := s2.Get("abc123")
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("after reopen Get = %q ok=%v err=%v", got, ok, err)
	}
}

// TestStoreGetIsNotWritableThroughAppend: two readers appending to the
// bytes Get returned must not write into each other's results.
func TestStoreGetIsNotWritableThroughAppend(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := "ab12"
			if err := s.Put(key, []byte("result")); err != nil {
				t.Fatal(err)
			}
			first, _, err := s.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			second, _, err := s.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			a := append(first, '!')
			b := append(second, '?')
			if string(a) != "result!" || string(b) != "result?" {
				t.Fatalf("appends through Get interfere: %q, %q", a, b)
			}
		})
	}
}
