predicate-000	select count(*) as n from part where p_size = 25
predicate-001	select count(*) as n from lineitem where l_discount = 0.05
predicate-002	select count(*) as n from orders where o_orderdate = date '1995-06-15'
predicate-003	select count(*) as n from part where p_size <> 25
predicate-004	select count(*) as n from lineitem where l_discount <> 0.05
predicate-005	select count(*) as n from orders where o_orderdate <> date '1995-06-15'
predicate-006	select count(*) as n from part where p_size < 25
predicate-007	select count(*) as n from lineitem where l_discount < 0.05
predicate-008	select count(*) as n from orders where o_orderdate < date '1995-06-15'
predicate-009	select count(*) as n from part where p_size <= 25
predicate-010	select count(*) as n from lineitem where l_discount <= 0.05
predicate-011	select count(*) as n from orders where o_orderdate <= date '1995-06-15'
predicate-012	select count(*) as n from part where p_size > 25
predicate-013	select count(*) as n from lineitem where l_discount > 0.05
predicate-014	select count(*) as n from orders where o_orderdate > date '1995-06-15'
predicate-015	select count(*) as n from part where p_size >= 25
predicate-016	select count(*) as n from lineitem where l_discount >= 0.05
predicate-017	select count(*) as n from orders where o_orderdate >= date '1995-06-15'
predicate-018	select count(*) as n from part where p_size + 5 < 15
predicate-019	select count(*) as n from part where p_size - 5 > 40
predicate-020	select count(*) as n from part where p_size * 2 >= 98
predicate-021	select count(*) as n from part where p_size / 2 >= 24
predicate-022	select count(*) as n from part where p_size % 2 = 0
predicate-023	select count(*) as n from part where p_retailprice * 1.1 > 2000.0
predicate-024	select count(*) as n from part where -p_size < -49
predicate-025	select count(*) as n from lineitem where l_extendedprice * (1 - l_discount) > 90000.0
predicate-026	select count(*) as n from lineitem where l_quantity * l_discount > 4.5
predicate-027	select count(*) as n from region where 1 = 1
predicate-028	select count(*) as n from region where 1 = 0
predicate-029	select count(*) as n from region where not 1 = 0
predicate-030	select count(*) as n from region where 1 = 1 and 2 > 1
predicate-031	select count(*) as n from region where 1 = 0 or 2 > 1
predicate-032	select count(*) as n from orders where o_orderstatus = 'F' and o_totalprice > 100000.0
predicate-033	select count(*) as n from orders where o_orderstatus = 'F' or o_orderstatus = 'O'
predicate-034	select count(*) as n from orders where not o_orderstatus = 'F'
predicate-035	select count(*) as n from orders where not (o_orderstatus = 'F' or o_orderstatus = 'O')
predicate-036	select count(*) as n from lineitem where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
predicate-037	select count(*) as n from lineitem where l_returnflag = 'R' and l_linestatus = 'F' and l_quantity < 10
predicate-038	select count(*) as n from customer where c_acctbal < 0.0
predicate-039	select count(*) as n from customer where c_acctbal >= 0.0 and c_acctbal <= 1000.0
predicate-040	select count(*) as n from supplier where s_acctbal > 5000.0 or s_nationkey < 5
predicate-041	select count(*) as n from partsupp where ps_availqty < 100 and ps_supplycost < 500.0
predicate-042	select count(*) as n from nation where n_regionkey = 0 and n_nationkey > 10
predicate-043	select count(*) as n from orders where o_custkey % 10 = 3
predicate-044	select count(*) as n from lineitem where l_commitdate < l_receiptdate
predicate-045	select count(*) as n from lineitem where l_shipdate > l_commitdate
predicate-046	select count(*) as n from orders where extract(year from o_orderdate) = 1995
predicate-047	select count(*) as n from orders where extract(month from o_orderdate) = 12
predicate-048	select count(*) as n from orders where extract(day from o_orderdate) = 1
case_between_in_like-000	select case when p_size > 25 then 'big' else 'small' end as t, count(*) as n from part group by t order by t
case_between_in_like-001	select case when p_size > 40 then 'xl' when p_size > 20 then 'l' else 's' end as t, count(*) as n from part group by t order by t
case_between_in_like-002	select case when p_size > 25 then 'big' end as t, count(*) as n from part group by t order by t
case_between_in_like-003	select case when l_quantity < 10 then 1 else 0 end as small, count(*) as n from lineitem group by small order by small
case_between_in_like-004	select sum(case when o_orderstatus = 'F' then 1 else 0 end) as f from orders
case_between_in_like-005	select sum(case when o_orderstatus = 'F' then o_totalprice else 0.0 end) as v from orders
case_between_in_like-006	select count(*) as n from part where case when p_size > 25 then 1 else 0 end = 1
case_between_in_like-007	select case when n_regionkey = 0 then n_name else 'other' end as x from nation order by x
case_between_in_like-008	select case when n_regionkey = 0 then n_name end as x from nation order by x
case_between_in_like-009	select case when p_size > 25 then case when p_size > 40 then 'xl' else 'l' end else 's' end as t, count(*) as n from part group by t order by t
case_between_in_like-010	select count(*) as n from part where p_size between 10 and 20
case_between_in_like-011	select count(*) as n from part where p_size not between 10 and 20
case_between_in_like-012	select count(*) as n from part where p_size between 20 and 10
case_between_in_like-013	select count(*) as n from part where p_size between 25 and 25
case_between_in_like-014	select count(*) as n from lineitem where l_discount between 0.05 and 0.07
case_between_in_like-015	select count(*) as n from orders where o_orderdate between date '1995-01-01' and date '1995-12-31'
case_between_in_like-016	select count(*) as n from part where p_size + 1 between 11 and 21
case_between_in_like-017	select count(*) as n from lineitem where l_quantity between 49 and 50
case_between_in_like-018	select count(*) as n from orders where o_orderkey in (1, 2, 3, 4)
case_between_in_like-019	select count(*) as n from orders where o_orderkey in (1)
case_between_in_like-020	select count(*) as n from orders where o_orderkey not in (1, 2, 3, 4)
case_between_in_like-021	select count(*) as n from orders where o_orderstatus in ('F', 'O')
case_between_in_like-022	select count(*) as n from orders where o_orderstatus not in ('F', 'O')
case_between_in_like-023	select count(*) as n from part where p_brand in ('Brand#12', 'Brand#23', 'Brand#34')
case_between_in_like-024	select count(*) as n from part where p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
case_between_in_like-025	select count(*) as n from nation where n_regionkey in (0, 2, 4)
case_between_in_like-026	select count(*) as n from lineitem where l_shipmode in ('MAIL', 'SHIP')
case_between_in_like-027	select count(*) as n from part where p_name like 'a%'
case_between_in_like-028	select count(*) as n from part where p_name like '%ous%'
case_between_in_like-029	select count(*) as n from part where p_name like '%red'
case_between_in_like-030	select count(*) as n from part where p_name not like '%red%'
case_between_in_like-031	select count(*) as n from part where p_type like 'PROMO%'
case_between_in_like-032	select count(*) as n from part where p_type like '%BRASS'
case_between_in_like-033	select count(*) as n from part where p_type like '%BURNISHED%'
case_between_in_like-034	select count(*) as n from nation where n_name like '_NITED%'
case_between_in_like-035	select count(*) as n from nation where n_name like '____'
case_between_in_like-036	select count(*) as n from part where p_container like 'SM ___'
case_between_in_like-037	select count(*) as n from part where p_name like '%%'
case_between_in_like-038	select count(*) as n from part where p_type like 'PROMO\%' escape '\'
case_between_in_like-039	select count(*) as n from part where p_name like '%\_%' escape '\'
case_between_in_like-040	select count(*) as n from customer where c_phone like '2_-%'
case_between_in_like-041	select count(*) as n from customer where c_mktsegment like 'BUILD%'
case_between_in_like-042	select count(*) as n from supplier where s_name like 'Supplier#00000001_'
distinct-000	select distinct o_orderstatus from orders order by o_orderstatus
distinct-001	select distinct l_returnflag from lineitem order by l_returnflag
distinct-002	select distinct l_linestatus from lineitem order by l_linestatus
distinct-003	select distinct l_returnflag, l_linestatus from lineitem order by l_returnflag, l_linestatus
distinct-004	select distinct p_brand from part order by p_brand
distinct-005	select distinct p_mfgr from part order by p_mfgr
distinct-006	select distinct n_regionkey from nation order by n_regionkey
distinct-007	select distinct c_mktsegment from customer order by c_mktsegment
distinct-008	select distinct o_orderpriority from orders order by o_orderpriority
distinct-009	select distinct o_shippriority from orders
distinct-010	select distinct l_shipmode from lineitem order by l_shipmode
distinct-011	select distinct p_size from part where p_size > 40 order by p_size
distinct-012	select distinct p_size % 10 as d from part order by d
distinct-013	select distinct extract(year from o_orderdate) as y from orders order by y
distinct-014	select distinct s_nationkey from supplier order by s_nationkey limit 5
distinct-015	select distinct p_brand, p_container from part where p_size = 1 order by p_brand, p_container
distinct-016	select count(distinct l_suppkey) as n from lineitem
distinct-017	select count(distinct p_brand) as n from part
distinct-018	select l_returnflag, count(distinct l_suppkey) as n from lineitem group by l_returnflag order by l_returnflag
distinct-019	select o_orderstatus, count(distinct o_custkey) as n from orders group by o_orderstatus order by o_orderstatus
distinct-020	select distinct o_orderstatus, o_orderpriority from orders order by o_orderstatus, o_orderpriority
having-000	select l_returnflag, count(*) as n from lineitem group by l_returnflag having count(*) > 10000 order by l_returnflag
having-001	select l_returnflag, count(*) as n from lineitem group by l_returnflag having count(*) > 100000 order by l_returnflag
having-002	select p_brand, count(*) as n from part group by p_brand having count(*) > 80 order by p_brand
having-003	select p_size, count(*) as n from part group by p_size having count(*) >= 40 order by p_size
having-004	select n_regionkey, count(*) as n from nation group by n_regionkey having count(*) = 5 order by n_regionkey
having-005	select o_custkey, sum(o_totalprice) as v from orders group by o_custkey having sum(o_totalprice) > 1500000.0 order by o_custkey
having-006	select o_custkey, count(*) as n from orders group by o_custkey having count(*) >= 30 order by o_custkey
having-007	select l_suppkey, avg(l_quantity) as q from lineitem group by l_suppkey having avg(l_quantity) > 27.0 order by l_suppkey
having-008	select l_suppkey, max(l_quantity) as q from lineitem group by l_suppkey having max(l_quantity) < 50 order by l_suppkey
having-009	select l_suppkey, min(l_discount) as d from lineitem group by l_suppkey having min(l_discount) > 0.0 order by l_suppkey
having-010	select p_mfgr, count(*) as n from part group by p_mfgr having count(*) > 350 and count(*) < 450 order by p_mfgr
having-011	select p_mfgr, count(*) as n from part group by p_mfgr having count(*) > 500 or min(p_size) = 1 order by p_mfgr
having-012	select c_nationkey, count(*) as n from customer group by c_nationkey having count(*) > 60 order by c_nationkey
having-013	select s_nationkey, sum(s_acctbal) as v from supplier group by s_nationkey having sum(s_acctbal) > 10000.0 order by s_nationkey
having-014	select o_orderpriority, count(*) as n from orders group by o_orderpriority having max(o_totalprice) > 400000.0 order by o_orderpriority
having-015	select l_returnflag, sum(l_quantity) as q from lineitem group by l_returnflag having sum(l_quantity) > 500000 order by l_returnflag
having-016	select p_brand, avg(p_retailprice) as v from part group by p_brand having avg(p_retailprice) > 1500.0 order by p_brand
having-017	select extract(year from o_orderdate) as y, count(*) as n from orders group by y having count(*) > 2000 order by y
having-018	select p_size, count(distinct p_brand) as b from part group by p_size having count(distinct p_brand) >= 25 order by p_size
having-019	select avg(l_discount) as a from lineitem having count(*) > 100000
null_semantics-000	select null as x from region
null_semantics-001	select null as x, r_name from region order by r_name
null_semantics-002	select count(*) as n from region where null = null
null_semantics-003	select count(*) as n from lineitem where l_quantity = null
null_semantics-004	select count(*) as n from lineitem where l_quantity <> null
null_semantics-005	select count(*) as n from lineitem where not l_quantity = null
null_semantics-006	select count(*) as n from part where p_size is null
null_semantics-007	select count(*) as n from part where p_size is not null
null_semantics-008	select count(*) as n from part where p_name is not null
null_semantics-009	select coalesce(null, 1) as x from region
null_semantics-010	select coalesce(null, null, 2) as x from region
null_semantics-011	select coalesce(p_size, 0) as x from part order by x limit 5
null_semantics-012	select coalesce(null, n_name) as x from nation order by x limit 5
null_semantics-013	select coalesce(n_name, 'missing') as x from nation order by x limit 5
null_semantics-014	select case when 1 = 0 then 1 end as x from region
null_semantics-015	select count(case when p_size > 25 then 1 end) as n from part
null_semantics-016	select n_name, s_name from nation left join supplier on n_nationkey = s_nationkey and s_acctbal > 9999.0 order by n_name, s_name
null_semantics-017	select count(s_name) as with_supp, count(*) as total from nation left join supplier on n_nationkey = s_nationkey and s_acctbal > 9999.0
null_semantics-018	select n_name from nation left join supplier on n_nationkey = s_nationkey and s_acctbal > 9999.0 where s_name is null order by n_name
null_semantics-019	select n_name from nation left join supplier on n_nationkey = s_nationkey and s_acctbal > 9999.0 where s_name is not null order by n_name
null_semantics-020	select count(*) as n from nation left join supplier on n_nationkey = s_nationkey and 1 = 0
null_semantics-021	select sum(s_acctbal) as v from nation left join supplier on n_nationkey = s_nationkey and s_acctbal > 9999.0
null_semantics-022	select case when p_size > 25 then p_size end as x from part where p_size > 48 order by x
null_semantics-023	select count(*) as n from region where null = null or 1 = 1
null_semantics-024	select count(*) as n from region where null = null and 1 = 1
shape_edge-000	select * from region where 1 = 0
shape_edge-001	select * from nation where n_nationkey < 0
shape_edge-002	select r_name from region where r_name = 'ATLANTIS'
shape_edge-003	select count(*) as n from region where 1 = 0
shape_edge-004	select sum(p_size) as s from part where 1 = 0
shape_edge-005	select min(p_size) as s, max(p_size) as m from part where 1 = 0
shape_edge-006	select avg(p_retailprice) as a from part where 1 = 0
shape_edge-007	select p_size, count(*) as n from part where 1 = 0 group by p_size
shape_edge-008	select distinct p_brand from part where 1 = 0
shape_edge-009	select r_name from region order by r_name limit 0
shape_edge-010	select r_name from region order by r_name limit 1
shape_edge-011	select count(*) as n from lineitem limit 1
shape_edge-012	select r_name from region order by r_name limit 100
shape_edge-013	select r_name from region order by r_name limit 3 offset 4
shape_edge-014	select r_name from region order by r_name limit 10 offset 99
shape_edge-015	select n_name from nation order by n_name offset 22
shape_edge-016	select n_name from nation order by n_name limit 5 offset 0
shape_edge-017	select * from region order by r_regionkey
shape_edge-018	select r.* from region r order by r_regionkey
shape_edge-019	select max(o_totalprice) as m from orders
shape_edge-020	select count(*) as n from region
shape_edge-021	select count(*) as n, count(*) as m from region
shape_edge-022	select r_regionkey, r_regionkey + 1 as nxt from region order by r_regionkey
shape_edge-023	select o_orderkey from orders where o_orderkey = 1
shape_edge-024	select l_orderkey, l_linenumber from lineitem where l_orderkey = 1 order by l_linenumber
subquery-000	select count(*) as n from nation where exists (select 1 from supplier where s_nationkey = n_nationkey)
subquery-001	select count(*) as n from nation where not exists (select 1 from supplier where s_nationkey = n_nationkey)
subquery-002	select n_name from nation where exists (select 1 from supplier where s_nationkey = n_nationkey and s_acctbal > 9000.0) order by n_name
subquery-003	select count(*) as n from customer where exists (select 1 from orders where o_custkey = c_custkey)
subquery-004	select count(*) as n from customer where not exists (select 1 from orders where o_custkey = c_custkey)
subquery-005	select count(*) as n from part where exists (select 1 from lineitem where l_partkey = p_partkey and l_quantity > 49)
subquery-006	select count(*) as n from orders where exists (select 1 from lineitem where l_orderkey = o_orderkey and l_returnflag = 'R')
subquery-007	select count(*) as n from supplier where exists (select 1 from partsupp where ps_suppkey = s_suppkey and ps_availqty < 10)
subquery-008	select count(*) as n from nation where n_regionkey in (select r_regionkey from region where r_name = 'ASIA')
subquery-009	select n_name from nation where n_regionkey in (select r_regionkey from region where r_name like 'A%') order by n_name
subquery-010	select count(*) as n from nation where n_regionkey not in (select r_regionkey from region where r_name = 'ASIA')
subquery-011	select count(*) as n from customer where c_nationkey in (select n_nationkey from nation where n_regionkey = 1)
subquery-012	select count(*) as n from orders where o_custkey in (select c_custkey from customer where c_acctbal < 0.0)
subquery-013	select count(*) as n from lineitem where l_partkey in (select p_partkey from part where p_size = 50)
subquery-014	select count(*) as n from supplier where s_nationkey not in (select n_nationkey from nation where n_regionkey = 0)
subquery-015	select count(*) as n from orders where o_totalprice > (select avg(o_totalprice) from orders)
subquery-016	select count(*) as n from part where p_retailprice < (select min(p_retailprice) + 10.0 from part)
subquery-017	select count(*) as n from lineitem where l_quantity = (select max(l_quantity) from lineitem)
subquery-018	select count(*) as n from supplier where s_acctbal >= (select max(s_acctbal) from supplier)
subquery-019	select count(*) as n from customer where c_acctbal < (select min(c_acctbal) + 1.0 from customer)
subquery-020	select o_orderkey from orders where o_totalprice >= (select max(o_totalprice) from orders) order by o_orderkey
subquery-021	select count(*) as n from nation where exists (select 1 from customer where c_nationkey = n_nationkey and exists (select 1 from orders where o_custkey = c_custkey and o_totalprice > 500000.0))
subquery-022	select count(*) as n from region where exists (select 1 from nation where n_regionkey = r_regionkey and n_name like 'U%')
subquery-023	select r_name from region where exists (select 1 from nation where n_regionkey = r_regionkey and exists (select 1 from supplier where s_nationkey = n_nationkey and s_acctbal < -900.0)) order by r_name
subquery-024	select count(*) as n from part where p_partkey in (select ps_partkey from partsupp where ps_supplycost < (select avg(ps_supplycost) from partsupp))
subquery-025	select count(*) as n from customer where c_custkey in (select o_custkey from orders where o_orderdate >= date '1998-01-01')
subquery-026	select count(*) as n from nation where exists (select 1 from supplier where s_nationkey = n_nationkey) and exists (select 1 from customer where c_nationkey = n_nationkey)
subquery-027	select count(*) as n from orders where exists (select 1 from lineitem where l_orderkey = o_orderkey and l_shipdate > o_orderdate)
subquery-028	select count(*) as n from part where not exists (select 1 from lineitem where l_partkey = p_partkey)
subquery-029	select n_name from nation where n_nationkey in (select s_nationkey from supplier where s_acctbal > (select avg(s_acctbal) from supplier)) order by n_name
order_limit-000	select n_name, n_regionkey from nation order by n_regionkey, n_name limit 10
order_limit-001	select n_name, n_regionkey from nation order by n_regionkey desc, n_name asc limit 10
order_limit-002	select n_name, n_regionkey from nation order by n_regionkey asc, n_name desc limit 10
order_limit-003	select p_brand, p_size, p_retailprice from part order by p_brand, p_size desc, p_retailprice limit 20
order_limit-004	select o_orderdate, o_totalprice from orders order by o_orderdate, o_totalprice desc limit 15
order_limit-005	select l_returnflag, l_linestatus, l_quantity from lineitem order by l_returnflag, l_linestatus, l_quantity desc limit 12
order_limit-006	select c_name from customer order by c_acctbal desc limit 5
order_limit-007	select c_name, c_acctbal from customer order by c_acctbal desc, c_name limit 5
order_limit-008	select s_name from supplier order by s_acctbal limit 7
order_limit-009	select p_name from part order by p_retailprice desc, p_name limit 9
order_limit-010	select o_orderkey from orders order by o_totalprice desc limit 1
order_limit-011	select p_size from part order by 1 limit 4
order_limit-012	select p_brand, count(*) as n from part group by p_brand order by 2 desc, 1 limit 6
order_limit-013	select p_brand, count(*) as n from part group by p_brand order by n desc, p_brand limit 6
order_limit-014	select p_brand, p_container, count(*) as n from part group by p_brand, p_container order by n desc, p_brand, p_container limit 5
order_limit-015	select l_shipmode, sum(l_quantity) as q from lineitem group by l_shipmode order by q desc limit 3
order_limit-016	select o_orderdate from orders order by o_orderdate limit 3
order_limit-017	select o_orderdate from orders order by o_orderdate desc limit 3
order_limit-018	select n_name from nation order by length(n_name), n_name limit 8
order_limit-019	select p_retailprice - p_size as v from part order by v desc limit 5
order_limit-020	select r_name from region order by r_name desc
order_limit-021	select n_regionkey, n_name from nation order by n_regionkey desc, n_name desc limit 25
order_limit-022	select c_custkey from customer order by c_custkey limit 10 offset 1490
order_limit-023	select o_orderkey from orders order by o_orderkey desc limit 4 offset 2
order_limit-024	select p_partkey from part order by p_partkey limit 5 offset 1995
order_limit-025	select s_suppkey, s_acctbal from supplier order by s_acctbal desc, s_suppkey limit 10 offset 5
order_limit-026	select l_orderkey from lineitem where l_orderkey < 100 order by l_orderkey, l_linenumber limit 8 offset 8
order_limit-027	select distinct p_size from part order by p_size desc limit 6
order_limit-028	select distinct o_orderpriority from orders order by o_orderpriority limit 2 offset 2
order_limit-029	select upper(n_name) as u from nation order by u desc limit 5
functions-000	select upper(n_name) as u from nation order by u limit 5
functions-001	select lower(r_name) as x from region order by x
functions-002	select upper(lower(r_name)) as x from region order by x
functions-003	select length(n_name) as l from nation order by l, n_name limit 10
functions-004	select n_name, length(n_name) as l from nation where length(n_name) > 10 order by n_name
functions-005	select max(length(p_name)) as m from part
functions-006	select abs(-3) as a from region limit 1
functions-007	select abs(c_acctbal) as a from customer order by a desc limit 5
functions-008	select count(*) as n from customer where abs(c_acctbal) < 10.0
functions-009	select round(2.567, 2) as r from region limit 1
functions-010	select round(o_totalprice, 0) as r from orders order by r desc limit 5
functions-011	select round(avg(l_discount), 3) as r from lineitem
functions-012	select round(p_retailprice, -2) as r, count(*) as n from part group by r order by r limit 10
functions-013	select n_name || '!' as x from nation order by x limit 5
functions-014	select r_name || '-' || r_name as x from region order by x
functions-015	select concat(n_name, '/', r_name) as x from nation join region on n_regionkey = r_regionkey order by x limit 5
functions-016	select substring(n_name, 1, 3) as s from nation order by s limit 10
functions-017	select substring(n_name from 2 for 4) as s from nation order by s limit 10
functions-018	select count(*) as n from nation where substring(n_name, 1, 1) = 'U'
functions-019	select upper(substring(r_name, 1, 2)) as x from region order by x
functions-020	select extract(year from o_orderdate) as y from orders order by y limit 3
functions-021	select extract(month from l_shipdate) as m, count(*) as n from lineitem group by m order by m
functions-022	select extract(day from o_orderdate) as d, count(*) as n from orders group by d order by d limit 10
functions-023	select cast(p_retailprice as int) as i from part order by i desc limit 5
functions-024	select cast(p_size as float) as f from part order by f limit 5
functions-025	select cast(p_size as float) / 7.0 as f from part order by f desc limit 5
functions-026	select coalesce(null, length(r_name)) as x from region order by x
functions-027	select length(r_name || '!') as x from region order by x
functions-028	select min(s_name) as a, max(s_name) as b from supplier
functions-029	select count(*) as n from part where length(p_name) between 20 and 30
join-000	select n_name, r_name from nation join region on n_regionkey = r_regionkey order by n_name
join-001	select n_name, r_name from nation, region where n_regionkey = r_regionkey order by n_name
join-002	select count(*) as n from nation join region on n_regionkey = r_regionkey
join-003	select count(*) as n from supplier join nation on s_nationkey = n_nationkey
join-004	select count(*) as n from customer join nation on c_nationkey = n_nationkey
join-005	select count(*) as n from orders join customer on o_custkey = c_custkey
join-006	select count(*) as n from lineitem join orders on l_orderkey = o_orderkey
join-007	select count(*) as n from lineitem join part on l_partkey = p_partkey
join-008	select count(*) as n from partsupp join supplier on ps_suppkey = s_suppkey
join-009	select count(*) as n from partsupp join part on ps_partkey = p_partkey
join-010	select count(*) as n from supplier join nation on s_nationkey = n_nationkey join region on n_regionkey = r_regionkey
join-011	select r_name, count(*) as n from supplier join nation on s_nationkey = n_nationkey join region on n_regionkey = r_regionkey group by r_name order by r_name
join-012	select count(*) as n from lineitem join orders on l_orderkey = o_orderkey join customer on o_custkey = c_custkey
join-013	select count(*) as n from region cross join region
join-014	select count(*) as n from nation cross join region
join-015	select r1.r_name, r2.r_name from region r1 cross join region r2 where r1.r_regionkey < r2.r_regionkey order by r1.r_name, r2.r_name limit 5
join-016	select count(*) as n from nation n1 join nation n2 on n1.n_regionkey = n2.n_regionkey
join-017	select count(*) as n from lineitem join orders on l_orderkey = o_orderkey where o_orderstatus = 'F'
join-018	select count(*) as n from lineitem join part on l_partkey = p_partkey where p_size > 40 and l_quantity < 5
join-019	select n_name, count(*) as n from customer join nation on c_nationkey = n_nationkey group by n_name order by n_name
join-020	select n_name, count(*) as n from supplier join nation on s_nationkey = n_nationkey group by n_name having count(*) >= 5 order by n_name
join-021	select o_orderpriority, sum(l_quantity) as q from lineitem join orders on l_orderkey = o_orderkey group by o_orderpriority order by o_orderpriority
join-022	select c_mktsegment, count(*) as n from orders join customer on o_custkey = c_custkey group by c_mktsegment order by c_mktsegment
join-023	select count(*) as n from nation left join supplier on n_nationkey = s_nationkey
join-024	select n_name, count(s_suppkey) as n from nation left join supplier on n_nationkey = s_nationkey group by n_name order by n_name limit 10
join-025	select count(*) as n from region left join nation on r_regionkey = n_regionkey
join-026	select t.n_name from (select n_name, n_regionkey from nation where n_regionkey < 2) t join region on t.n_regionkey = r_regionkey order by t.n_name
join-027	select count(*) as n from lineitem join partsupp on l_partkey = ps_partkey and l_suppkey = ps_suppkey
join-028	select s_name from supplier join nation on s_nationkey = n_nationkey where n_name = 'FRANCE' order by s_name
join-029	select count(*) as n from orders join customer on o_custkey = c_custkey join nation on c_nationkey = n_nationkey where n_regionkey = 2
aggregate-000	select sum(l_quantity) as v from lineitem
aggregate-001	select l_returnflag, sum(l_extendedprice) as v from lineitem group by l_returnflag order by l_returnflag
aggregate-002	select o_orderpriority, sum(o_totalprice) as v from orders group by o_orderpriority order by o_orderpriority
aggregate-003	select min(l_quantity) as v from lineitem
aggregate-004	select l_returnflag, min(l_extendedprice) as v from lineitem group by l_returnflag order by l_returnflag
aggregate-005	select o_orderpriority, min(o_totalprice) as v from orders group by o_orderpriority order by o_orderpriority
aggregate-006	select max(l_quantity) as v from lineitem
aggregate-007	select l_returnflag, max(l_extendedprice) as v from lineitem group by l_returnflag order by l_returnflag
aggregate-008	select o_orderpriority, max(o_totalprice) as v from orders group by o_orderpriority order by o_orderpriority
aggregate-009	select avg(l_quantity) as v from lineitem
aggregate-010	select l_returnflag, avg(l_extendedprice) as v from lineitem group by l_returnflag order by l_returnflag
aggregate-011	select o_orderpriority, avg(o_totalprice) as v from orders group by o_orderpriority order by o_orderpriority
aggregate-012	select count(l_quantity) as v from lineitem
aggregate-013	select l_returnflag, count(l_extendedprice) as v from lineitem group by l_returnflag order by l_returnflag
aggregate-014	select o_orderpriority, count(o_totalprice) as v from orders group by o_orderpriority order by o_orderpriority
aggregate-015	select count(*) as n from lineitem
aggregate-016	select sum(l_quantity) as q, sum(l_extendedprice) as v from lineitem
aggregate-017	select min(l_shipdate) as a, max(l_shipdate) as b from lineitem
aggregate-018	select avg(o_totalprice) as a from orders
aggregate-019	select count(*) as n, sum(o_totalprice) as v, avg(o_totalprice) as a from orders
aggregate-020	select sum(l_extendedprice * l_discount) as rev from lineitem where l_discount between 0.05 and 0.07 and l_quantity < 24
aggregate-021	select l_returnflag, l_linestatus, sum(l_quantity) as q, avg(l_extendedprice) as p, count(*) as n from lineitem group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus
aggregate-022	select p_size as sz, count(*) as n from part group by sz order by sz
aggregate-023	select p_size, count(*) as n from part group by 1 order by 1
aggregate-024	select p_size % 5 as bucket, count(*) as n from part group by bucket order by bucket
aggregate-025	select extract(year from o_orderdate) as y, sum(o_totalprice) as v from orders group by y order by y
aggregate-026	select n_regionkey, min(n_name) as a, max(n_name) as b from nation group by n_regionkey order by n_regionkey
aggregate-027	select o_orderstatus, min(o_orderdate) as a, max(o_orderdate) as b from orders group by o_orderstatus order by o_orderstatus
aggregate-028	select l_shipmode, avg(l_discount) as d from lineitem group by l_shipmode order by l_shipmode
aggregate-029	select c_nationkey, avg(c_acctbal) as a from customer group by c_nationkey order by c_nationkey limit 10
aggregate-030	select p_mfgr, p_brand, count(*) as n from part group by p_mfgr, p_brand order by p_mfgr, p_brand limit 12
aggregate-031	select o_custkey % 7 as h, count(*) as n, sum(o_totalprice) as v from orders group by h order by h
aggregate-032	select count(*) as n from (select o_custkey from orders group by o_custkey) t
aggregate-033	select count(*) as n from (select l_orderkey, count(*) as c from lineitem group by l_orderkey having count(*) = 7) t
aggregate-034	select max(n) as m from (select o_custkey, count(*) as n from orders group by o_custkey) t
aggregate-035	select avg(c) as a from (select l_orderkey, count(*) as c from lineitem group by l_orderkey) t
aggregate-036	select sum(case when l_returnflag = 'R' then l_quantity else 0 end) as r_qty from lineitem
aggregate-037	select count(*) as groups from (select p_brand, p_size from part group by p_brand, p_size) t
aggregate-038	select l_linenumber, count(*) as n from lineitem group by l_linenumber order by l_linenumber
aggregate-039	select s_nationkey, count(*) as n, round(sum(s_acctbal), 1) as v from supplier group by s_nationkey order by s_nationkey
aggregate-040	select upper(o_orderstatus) as s, count(*) as n from orders group by s order by s
aggregate-041	select length(p_brand) as l, count(*) as n from part group by l order by l
aggregate-042	select o_orderpriority, count(distinct o_custkey) as c, count(*) as n from orders group by o_orderpriority order by o_orderpriority
aggregate-043	select substring(c_phone, 1, 2) as cc, count(*) as n from customer group by cc order by cc limit 10
aggregate-044	select sum(ps_availqty) as q, min(ps_supplycost) as a, max(ps_supplycost) as b from partsupp
