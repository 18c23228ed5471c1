package stats

import (
	"strings"
	"testing"
)

func TestTotalsSums(t *testing.T) {
	m := New(3)
	m.Nodes[0].LocalReads = 5
	m.Nodes[1].LocalReads = 7
	m.Nodes[2].RemoteWrites = 2
	m.Nodes[0].BusyCycles = 100
	m.Nodes[2].BusyCycles = 50
	tot := m.Totals()
	if tot.LocalReads != 12 || tot.RemoteWrites != 2 || tot.BusyCycles != 150 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestMessagesSum(t *testing.T) {
	m := New(1)
	m.MsgRead, m.MsgReadRep, m.MsgWrite, m.MsgUpdate = 1, 2, 3, 4
	m.MsgAck, m.MsgRMW, m.MsgRMWRep, m.MsgPage = 5, 6, 7, 8
	if m.Messages() != 36 {
		t.Fatalf("Messages = %d", m.Messages())
	}
	m.MsgTAck, m.MsgWake = 9, 10
	if m.Messages() != 55 {
		t.Fatalf("Messages with transport acks and wakes = %d", m.Messages())
	}
}

// TestFoldShardWakes pins that a shard view's wake count folds into the
// master and that the report shows it only when nonzero.
func TestFoldShardWakes(t *testing.T) {
	m := New(1)
	if r := m.Report(0); strings.Contains(r, "wake") {
		t.Fatalf("report of a run without wakes mentions them:\n%s", r)
	}
	v := m.ShardView()
	v.MsgWake = 3
	m.FoldShard(v)
	m.FoldShard(v)
	if m.MsgWake != 3 || v.MsgWake != 0 {
		t.Fatalf("after fold: master MsgWake = %d, view %d; want 3, 0", m.MsgWake, v.MsgWake)
	}
	if r := m.Report(0); !strings.Contains(r, ", wake 3\n") {
		t.Fatalf("report does not show the wakes:\n%s", r)
	}
}

func TestRatios(t *testing.T) {
	m := New(1)
	m.Nodes[0].LocalReads = 10
	m.Nodes[0].RemoteReads = 4
	if got := m.ReadRatio(); got != 2.5 {
		t.Fatalf("read ratio = %f", got)
	}
	m.Nodes[0].LocalWrites = 9
	m.Nodes[0].RemoteWrites = 0
	if got := m.WriteRatio(); got != 9 {
		t.Fatalf("zero-denominator write ratio = %f", got)
	}
	if got := New(1).ReadRatio(); got != 0 {
		t.Fatalf("empty ratio = %f", got)
	}
}

func TestUpdateRatio(t *testing.T) {
	m := New(1)
	m.MsgWrite = 6
	m.MsgUpdate = 3
	m.MsgAck = 3
	if got := m.UpdateRatio(); got != 4 {
		t.Fatalf("update ratio = %f", got)
	}
}

func TestUtilization(t *testing.T) {
	m := New(2)
	m.Nodes[0].BusyCycles = 80
	m.Nodes[1].BusyCycles = 40
	if got := m.Utilization(2, 100); got != 0.6 {
		t.Fatalf("utilization = %f", got)
	}
	if got := m.Utilization(0, 100); got != 0 {
		t.Fatalf("utilization with no processors = %f", got)
	}
	if got := m.Utilization(2, 0); got != 0 {
		t.Fatalf("utilization with no time = %f", got)
	}
}
