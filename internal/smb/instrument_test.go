package smb

import (
	"strings"
	"testing"

	"shmcaffe/internal/telemetry"
	"shmcaffe/internal/tensor"
)

// TestStoreInstrumented: with a registry installed, traffic must show up in
// both the scrape-time counter views and the latency histograms.
func TestStoreInstrumented(t *testing.T) {
	reg := telemetry.NewRegistry()
	store := NewStore()
	store.Instrument(reg)

	key, err := store.Create("wg", 1024)
	if err != nil {
		t.Fatal(err)
	}
	dKey, err := store.Create("dw", 1024)
	if err != nil {
		t.Fatal(err)
	}
	hg, _ := store.Attach(key)
	hd, _ := store.Attach(dKey)
	buf := tensor.Float32Bytes(onesVec(256))
	if err := store.Write(hd, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Read(hg, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := store.Accumulate(hg, hd); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"smb_creates_total 2",
		"smb_reads_total 1",
		"smb_writes_total 1",
		"smb_accumulates_total 1",
		"smb_segments 2",
		"smb_accumulate_seconds_count 1",
		"smb_accumulate_stripe_wait_seconds_count 1",
		"smb_read_seconds_count 1",
		"smb_write_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestNotifyWakeupCounter: a blocked WaitUpdate released by a Write counts
// one wakeup; a non-blocking WaitUpdate counts none.
func TestNotifyWakeupCounter(t *testing.T) {
	store := NewStore()
	key, err := store.Create("seg", 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := store.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(h, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	// Version is now 1: waiting for >0 returns without blocking.
	if _, err := store.WaitUpdate(h, 0); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().NotifyWakeups; got != 0 {
		t.Fatalf("non-blocking wait counted %d wakeups", got)
	}

	done := make(chan error, 1)
	go func() {
		_, err := store.WaitUpdate(h, 1)
		done <- err
	}()
	// The waiter may or may not have parked yet; the Write below releases it
	// either way, and the counter must reflect whether it actually blocked.
	if err := store.Write(h, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			w := store.Stats().NotifyWakeups
			if w != 0 && w != 1 {
				t.Fatalf("NotifyWakeups = %d, want 0 or 1", w)
			}
			return
		default:
			// Keep bumping in case the waiter parked after our first write.
			if err := store.Write(h, 0, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStreamClientInstrumented covers the wire RTT and chunked-push
// histograms end to end.
func TestStreamClientInstrumented(t *testing.T) {
	store := NewStore()
	server, err := NewServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go server.Serve() //lint:ignore goleak joined by server.Close via the server's WaitGroup

	reg := telemetry.NewRegistry()
	client, err := Dial(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Instrument(reg)

	key, err := client.Create("wg", 256)
	if err != nil {
		t.Fatal(err)
	}
	h, err := client.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := client.Write(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := client.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := client.Accumulate(h, h); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteAccumulate(h, h, buf); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`smb_client_rtt_seconds_count{op="read"} 1`,
		`smb_client_rtt_seconds_count{op="write"} 1`,
		`smb_client_rtt_seconds_count{op="accumulate"} 1`,
		// One observation per pushed sequence, however many chunks.
		`smb_client_chunk_write_seconds_count 1`,
		`smb_client_chunk_pipeline_depth_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestShardedClientInstrumented covers the fan-out histograms.
func TestShardedClientInstrumented(t *testing.T) {
	s1, s2 := NewStore(), NewStore()
	sc, err := NewShardedClient(NewLocalClient(s1), NewLocalClient(s2))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sc.Instrument(reg)

	key, err := sc.Create("wg", 4096)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sc.Attach(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := sc.Write(h, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := sc.Read(h, 0, buf); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`smb_sharded_seconds_count{op="read"} 1`,
		`smb_sharded_seconds_count{op="write"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}
