package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	cases := []struct {
		in string
		ok bool
	}{
		{"00-" + tid + "-00f067aa0ba902b7-01", true},
		{"  00-" + tid + "-00f067aa0ba902b7-01  ", true},
		{"01-" + tid + "-00f067aa0ba902b7-01-extra", true}, // future version, extra field
		{"ff-" + tid + "-00f067aa0ba902b7-01", false},      // reserved version
		{"00-" + tid + "-00f067aa0ba902b7-01-extra", false},
		{"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", false}, // zero trace ID
		{"00-" + tid + "-0000000000000000-01", false},                     // zero parent ID
		{"00-" + tid[:31] + "-00f067aa0ba902b7-01", false},
		{"00-" + tid[:31] + "g-00f067aa0ba902b7-01", false},
		{"", false},
		{"garbage", false},
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
		if ok && got.String() != tid {
			t.Errorf("ParseTraceparent(%q) = %s, want %s", c.in, got, tid)
		}
	}
}

func TestRootSpanAdoptsIngestedTraceID(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	want, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	ctx := WithTrace(With(context.Background(), reg), want)
	ctx, sp := Start(ctx, "req")
	if got := sp.TraceID(); got != want {
		t.Fatalf("root span trace ID = %s, want %s", got, want)
	}
	if got := TraceIDFrom(ctx); got != want {
		t.Fatalf("TraceIDFrom = %s, want %s", got, want)
	}
	_, child := Start(ctx, "inner")
	if got := child.TraceID(); got != want {
		t.Fatalf("child trace ID = %s, want %s", got, want)
	}
	child.End()
	sp.End()
	traces := reg.TraceBuckets().Recent
	if len(traces) != 1 || traces[0].TraceID != want.String() {
		t.Fatalf("recorded trace ID = %+v, want %s", traces, want)
	}
	if traces[0].SpanID == "" || traces[0].Children[0].SpanID == "" {
		t.Fatalf("span IDs missing: %+v", traces[0])
	}
	if traces[0].SpanID == traces[0].Children[0].SpanID {
		t.Fatalf("parent and child share a span ID")
	}
}

func TestSpanAttrsAndError(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	ctx, sp := Start(With(context.Background(), reg), "req")
	sp.SetAttr("verb", "detect")
	sp.SetAttr("findings", 3)
	sp.SetAttr("findings", 4) // later value wins
	_, child := Start(ctx, "scan")
	child.SetError("boom")
	child.End()
	sp.End()

	tb := reg.TraceBuckets()
	if len(tb.Recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(tb.Recent))
	}
	root := tb.Recent[0]
	if root.Attrs["verb"] != "detect" || root.Attrs["findings"] != 4 {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if root.Children[0].Error != "boom" {
		t.Errorf("child error = %q, want boom", root.Children[0].Error)
	}
	// An errored span routes the whole trace into the error ring.
	if len(tb.Errors) != 1 || tb.Errors[0].TraceID != root.TraceID {
		t.Errorf("error ring = %+v, want the errored trace", tb.Errors)
	}
	if len(tb.Slow) != 0 {
		t.Errorf("slow ring = %+v, want empty (fast trace)", tb.Slow)
	}
}

func TestSlowTraceRetention(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	_, sp := Start(With(context.Background(), reg), "slow-req")
	// Backdate the root instead of sleeping past the threshold.
	sp.start = sp.start.Add(-DefaultSlowTraceThreshold)
	sp.End()
	tb := reg.TraceBuckets()
	if len(tb.Slow) != 1 || tb.Slow[0].Name != "slow-req" {
		t.Fatalf("slow ring = %+v, want the slow trace", tb.Slow)
	}

	// A trace under the threshold is not retained as slow.
	_, sp = Start(With(context.Background(), reg), "fast-req")
	sp.End()
	if tb := reg.TraceBuckets(); len(tb.Slow) != 1 {
		t.Fatalf("slow ring grew for a fast trace: %+v", tb.Slow)
	}
}

func TestSpanTreeBounds(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	ctx, root := Start(With(context.Background(), reg), "root")

	// Children cap: only MaxChildrenPerSpan attach, the rest count as
	// dropped.
	for i := 0; i < MaxChildrenPerSpan+10; i++ {
		_, c := Start(ctx, "child")
		if i < MaxChildrenPerSpan && c == nil {
			t.Fatalf("child %d refused below the cap", i)
		}
		if i >= MaxChildrenPerSpan && c != nil {
			t.Fatalf("child %d accepted above the cap", i)
		}
		c.End()
	}
	root.End()
	sd := reg.TraceBuckets().Recent[0]
	if len(sd.Children) != MaxChildrenPerSpan {
		t.Errorf("children = %d, want %d", len(sd.Children), MaxChildrenPerSpan)
	}
	if sd.DroppedSpans != 10 {
		t.Errorf("droppedSpans = %d, want 10", sd.DroppedSpans)
	}

	// Trace-wide cap: a deep-and-wide tree stops at MaxSpansPerTrace
	// total spans.
	ctx2, root2 := Start(With(context.Background(), reg), "root")
	total := 1
	var grow func(ctx context.Context, depth int)
	grow = func(ctx context.Context, depth int) {
		if depth > 16 {
			return
		}
		for i := 0; i < MaxChildrenPerSpan; i++ {
			cctx, c := Start(ctx, "n")
			if c == nil {
				return
			}
			total++
			grow(cctx, depth+1)
			c.End()
		}
	}
	grow(ctx2, 0)
	root2.End()
	if total != MaxSpansPerTrace {
		t.Errorf("spans created = %d, want exactly %d", total, MaxSpansPerTrace)
	}
	if count := countSpans(reg.TraceBuckets().Recent[0]); count != MaxSpansPerTrace {
		t.Errorf("recorded spans = %d, want %d", count, MaxSpansPerTrace)
	}
}

func countSpans(sd SpanData) int {
	n := 1
	for _, c := range sd.Children {
		n += countSpans(c)
	}
	return n
}

func TestRecordChild(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	_, root := Start(With(context.Background(), reg), "req")
	start := time.Now().Add(-50 * time.Millisecond)
	c := root.RecordChild("queue-wait", start, start.Add(40*time.Millisecond))
	c.SetAttr("depth", 7)
	root.End()
	sd := reg.TraceBuckets().Recent[0]
	if len(sd.Children) != 1 || sd.Children[0].Name != "queue-wait" {
		t.Fatalf("children = %+v", sd.Children)
	}
	if ms := sd.Children[0].DurationMS; ms < 39 || ms > 41 {
		t.Errorf("recorded child duration = %gms, want ~40ms", ms)
	}
	if sd.Children[0].Attrs["depth"] != 7 {
		t.Errorf("recorded child attrs = %v", sd.Children[0].Attrs)
	}

	// Nil-safety: no panic on a nil span.
	var nilSpan *Span
	if got := nilSpan.RecordChild("x", start, start); got != nil {
		t.Errorf("nil.RecordChild = %v, want nil", got)
	}
	nilSpan.SetAttr("k", 1)
	nilSpan.SetError("e")
	if !nilSpan.TraceID().IsZero() || !nilSpan.SpanID().IsZero() {
		t.Errorf("nil span has identity")
	}
}

// TestConcurrentTracing hammers Start/End/SetAttr/TraceBuckets from many
// goroutines; the -race CI pass turns any unsynchronized access into a
// failure.
func TestConcurrentTracing(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := Start(With(context.Background(), reg), "req")
				root.SetAttr("g", g)
				for j := 0; j < 3; j++ {
					cctx, c := Start(ctx, "phase")
					_, cc := Start(cctx, "leaf")
					cc.SetAttr("j", j)
					cc.End()
					if j == 1 {
						c.SetError("transient")
					}
					c.End()
				}
				root.RecordChild("queue-wait", time.Now(), time.Now())
				root.End()
			}
		}(g)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.TraceBuckets()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := reg.TraceBuckets().Recent; len(got) == 0 {
		t.Fatal("no traces retained after concurrent hammer")
	}
	if tb := reg.TraceBuckets(); len(tb.Errors) == 0 {
		t.Fatal("no error traces retained after concurrent hammer")
	}
}
