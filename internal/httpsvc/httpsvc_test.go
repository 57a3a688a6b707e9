package httpsvc

import (
	"testing"
	"time"
)

func TestTrackerIdle(t *testing.T) {
	var tr Tracker
	select {
	case <-tr.Idle():
	case <-time.After(5 * time.Second):
		t.Fatal("zero Tracker is not idle")
	}
	tr.Add()
	tr.Add()
	idle := tr.Idle()
	tr.Done()
	select {
	case <-idle:
		t.Fatal("Idle closed with one goroutine still tracked")
	case <-time.After(20 * time.Millisecond):
	}
	tr.Done()
	select {
	case <-idle:
	case <-time.After(5 * time.Second):
		t.Fatal("Idle did not close after the last Done")
	}
}
