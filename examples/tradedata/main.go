// Trade data: the first motivating scenario of the paper (Section 1.1).
//
// An application publishes one message per stock trade. Two kinds of
// consumers want the stream: paying "gold" consumers at brokerage firms
// (high rank, nearly inelastic — most of their value needs full rate) and
// public Internet consumers (low rank, elastic). Before reaching public
// consumers, messages are transformed: fields available only to gold
// consumers are removed. Under resource pressure the system sheds public
// consumers via admission control rather than degrade gold service.
//
//	go run ./examples/tradedata
package main

import (
	"fmt"
	"log"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/utility"
)

func buildProblem(capacity float64) *model.Problem {
	return &model.Problem{
		Name: "trade-data",
		Flows: []model.Flow{
			{ID: 0, Name: "trades", Source: 0, RateMin: 50, RateMax: 500},
		},
		Nodes: []model.Node{
			// One shared hub node serves both tiers, so admission control
			// genuinely trades gold against public consumers.
			{ID: 0, Name: "hub", Capacity: capacity, FlowCost: model.CostsOf(map[model.FlowID]float64{0: 3})},
		},
		Classes: []model.Class{
			// Gold: nearly inelastic — utility saturates only close to
			// the full 500 msg/s, with a high rank. Reliability work
			// (acks, redelivery) makes its per-consumer cost higher:
			// G=40 vs 19.
			{ID: 0, Name: "gold", Flow: 0, Node: 0, MaxConsumers: 60,
				CostPerConsumer: 40, Utility: utility.LinearCap{Scale: 30, Knee: 400}},
			// Public: elastic log utility, low rank, numerous.
			{ID: 1, Name: "public", Flow: 0, Node: 0, MaxConsumers: 5000,
				CostPerConsumer: 19, Utility: utility.NewLog(2)},
		},
	}
}

func optimizeAndEnact(capacity float64) error {
	p := buildProblem(capacity)
	engine, err := core.NewEngine(p, core.Config{Adaptive: true})
	if err != nil {
		return err
	}
	res := engine.Solve(500)

	// Enact in a real broker: gold consumers see raw trades, public
	// consumers get the counterparty field stripped.
	b, err := broker.New(p, broker.WithTransform(1, broker.DropAttrs{"counterparty"}))
	if err != nil {
		return err
	}
	var goldSample, publicSample broker.Message
	for i := 0; i < p.Classes[0].MaxConsumers; i++ {
		if _, err := b.AttachConsumer(0, nil, func(m broker.Message) { goldSample = m }); err != nil {
			return err
		}
	}
	for i := 0; i < p.Classes[1].MaxConsumers; i++ {
		if _, err := b.AttachConsumer(1, nil, func(m broker.Message) { publicSample = m }); err != nil {
			return err
		}
	}
	if err := b.ApplyAllocation(res.Allocation); err != nil {
		return err
	}
	if err := b.Publish(0, map[string]float64{
		"price": 101.25, "qty": 300, "counterparty": 77,
	}, "IBM trade"); err != nil {
		return err
	}

	gold, _ := b.ClassStats(0)
	public, _ := b.ClassStats(1)
	fmt.Printf("capacity %8.0f | rate %5.1f msg/s | gold %2d/%2d | public %4d/%4d | utility %8.0f\n",
		capacity, res.Allocation.Rates[0],
		gold.Admitted, gold.Attached, public.Admitted, public.Attached, res.Utility)

	if gold.Admitted > 0 {
		if _, ok := goldSample.Attrs["counterparty"]; !ok {
			return fmt.Errorf("gold consumer lost the counterparty field")
		}
	}
	if public.Admitted > 0 {
		if _, ok := publicSample.Attrs["counterparty"]; ok {
			return fmt.Errorf("public consumer saw the counterparty field")
		}
	}
	return nil
}

func main() {
	fmt.Println("Trade-data scenario: shrinking capacity sheds public consumers first.")
	fmt.Println()
	// From generous to starved: the optimizer keeps the gold class (and
	// a high rate for it) as long as possible while public admission
	// absorbs the squeeze.
	for _, capacity := range []float64{2_000_000, 600_000, 150_000, 30_000} {
		if err := optimizeAndEnact(capacity); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println()
	fmt.Println("The public tier absorbs the cuts first: gold stays fully admitted down to")
	fmt.Println("a fraction of the original capacity (trading rate for admission), and only")
	fmt.Println("starvation-level capacity sheds gold consumers. Public messages never carry")
	fmt.Println("the gold-only counterparty field.")
}
