// Latest price: the second motivating scenario of the paper (Section 1.1).
//
// An application publishes the latest price of a stock. Public consumers
// subscribe with content filters (e.g. "price > 80") and the flow is very
// elastic: under resource pressure the system can lower the update
// frequency (raising latency) instead of — or in addition to — denying
// service. This example runs the optimizer across a load sweep and then
// pushes a price series through the broker to show filtering in action.
//
//	go run ./examples/latestprice
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

// buildProblem models one elastic price flow and `demand` interested
// consumers split across two filter populations on one node.
func buildProblem(demand int) *model.Problem {
	return &model.Problem{
		Name: "latest-price",
		Flows: []model.Flow{
			{ID: 0, Name: "ibm-px", Source: 0, RateMin: 1, RateMax: 200},
		},
		Nodes: []model.Node{
			{ID: 0, Name: "edge", Capacity: 300_000, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			// Chart watchers: want every tick they can get (elastic log).
			{ID: 0, Name: "chart", Flow: 0, Node: 0, MaxConsumers: demand,
				CostPerConsumer: 19, Utility: utility.NewLog(8)},
			// Alert watchers: a few updates per second suffice (steeper
			// early utility: higher rank, same family).
			{ID: 1, Name: "alert", Flow: 0, Node: 0, MaxConsumers: demand / 2,
				CostPerConsumer: 19, Utility: utility.NewLog(20)},
		},
	}
}

func main() {
	fmt.Println("Latest-price scenario: elastic rate absorbs rising demand.")
	fmt.Println()
	fmt.Println("demand   rate(msg/s)  chart-admitted  alert-admitted  utility")

	var last *core.Result
	var lastProblem *model.Problem
	for _, demand := range []int{200, 1000, 4000, 16000} {
		p := buildProblem(demand)
		e, err := core.NewEngine(p, core.Config{Adaptive: true})
		if err != nil {
			log.Fatal(err)
		}
		res := e.Solve(500)
		fmt.Printf("%6d   %11.1f  %8d/%-6d %8d/%-6d %8.0f\n",
			demand, res.Allocation.Rates[0],
			res.Allocation.Consumers[0], demand,
			res.Allocation.Consumers[1], demand/2,
			res.Utility)
		last, lastProblem = &res, p
	}

	fmt.Println()
	fmt.Println("As demand grows the optimizer lowers the update rate (latency rises)")
	fmt.Println("before it starts denying consumers — the flow is elastic.")
	fmt.Println()

	// Enact the final allocation and stream a price series through
	// consumer filters. A manual clock advances one second per tick so
	// the stream stays inside the enforced rate (the tradedata example
	// and cmd/lrgp-broker demonstrate throttling itself).
	now := time.Date(2026, 7, 4, 9, 30, 0, 0, time.UTC)
	b, err := broker.New(lastProblem, broker.WithClock(func() time.Time { return now }))
	if err != nil {
		log.Fatal(err)
	}
	above80 := 0
	cross := 0
	if _, err := b.AttachConsumer(0, broker.AttrFilter{Attr: "price", Op: broker.CmpGT, Value: 80},
		func(broker.Message) { above80++ }); err != nil {
		log.Fatal(err)
	}
	if _, err := b.AttachConsumer(1, broker.And{
		broker.AttrFilter{Attr: "price", Op: broker.CmpGE, Value: 84},
		broker.AttrFilter{Attr: "delta", Op: broker.CmpGT, Value: 0},
	}, func(broker.Message) { cross++ }); err != nil {
		log.Fatal(err)
	}
	// Admit the two demo consumers alongside the optimizer's counts.
	alloc := last.Allocation.Clone()
	if alloc.Consumers[0] == 0 {
		alloc.Consumers[0] = 1
	}
	if alloc.Consumers[1] == 0 {
		alloc.Consumers[1] = 1
	}
	if err := b.ApplyAllocation(alloc); err != nil {
		log.Fatal(err)
	}

	prev := 80.0
	published := 0
	for i := 0; i < 200; i++ {
		now = now.Add(time.Second)
		price := 80 + 6*math.Sin(float64(i)/9)
		if err := b.Publish(0, map[string]float64{
			"price": price,
			"delta": price - prev,
		}, "px"); err == nil {
			published++
		}
		prev = price
	}
	fmt.Printf("streamed %d price ticks: %d passed \"price > 80\", %d passed the\n",
		published, above80, cross)
	fmt.Println(`compound alert filter "price >= 84 && delta > 0".`)
}
