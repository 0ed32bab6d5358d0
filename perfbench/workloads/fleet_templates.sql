-- q6
select sum(l_extendedprice * l_discount) as revenue from lineitem where l_shipdate >= date '1993-01-01' + interval '{p}' day and l_shipdate < date '1994-01-01' + interval '{p}' day and l_discount between 0.05 and 0.07 and l_quantity < 24
;
-- q14
select 100.00 * sum(case when p_type like 'PROMO%' then l_extendedprice * (1 - l_discount) else 0 end) / sum(l_extendedprice * (1 - l_discount)) as promo_revenue from lineitem, part where l_partkey = p_partkey and l_shipdate >= date '1994-01-01' + interval '{p}' day and l_shipdate < date '1994-02-01' + interval '{p}' day
;
-- q3
select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, o_orderdate, o_shippriority from customer, orders, lineitem where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate < date '1994-06-01' + interval '{p}' day and l_shipdate > date '1994-06-01' + interval '{p}' day group by l_orderkey, o_orderdate, o_shippriority order by revenue desc, o_orderdate limit 10
;
-- q1
select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price, sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order from lineitem where l_shipdate <= date '1998-12-01' - interval '{p}' day group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus
;
